(* Benchmark / experiment driver.

   With no arguments it regenerates every table and figure of the paper
   (T1, F5, F2, E1–E6; see DESIGN.md §4) and then runs the Bechamel
   micro-benchmarks of the hot paths. A single argument selects one
   experiment ("t1", "f5", "f2", "e1".."e6", "micro").

   With --json-out FILE it instead emits the machine-readable BENCH.json
   (schema "repro-bench/1"): micro-benchmark estimates plus one registry
   entry (counters + latency histograms) per algorithm on the concurrent
   and centralized presets. --scale F shrinks both the workloads and the
   Bechamel quota, for the CI perf gate:

     dune exec bench/main.exe -- micro --json-out BENCH.json --scale 0.2 *)

open Repro_relational
open Repro_sim
open Repro_workload
open Repro_harness

(* ------------------------------------------------------------------ *)
(* Bechamel micro-benchmarks                                            *)
(* ------------------------------------------------------------------ *)

let micro_tests () =
  let open Bechamel in
  let rng = Rng.create 2024L in
  let view3 = Chain.view ~n:3 () in
  let rels = Chain.populate view3 ~size:1000 ~domain:64 rng in
  let delta = Delta.insertion (Chain.tuple ~key:10_000 ~a:7 ~b:9) in
  let bench_hash_join =
    Test.make ~name:"hash join 1k x 1k"
      (Staged.stage (fun () ->
           let left = Partial.of_relation view3 0 rels.(0) in
           let right = Partial.of_relation view3 1 rels.(1) in
           ignore (Algebra.join view3 left right)))
  in
  let bench_sweep_step =
    Test.make ~name:"sweep step (dR join R, 1k tuples)"
      (Staged.stage (fun () ->
           let p = Partial.of_source_delta view3 1 delta in
           ignore (Algebra.extend view3 p ~with_relation:(0, rels.(0)))))
  in
  let bench_compensate =
    let temp = Partial.of_source_delta view3 1 delta in
    let answer = Algebra.extend view3 temp ~with_relation:(0, rels.(0)) in
    Test.make ~name:"local compensation"
      (Staged.stage (fun () ->
           ignore
             (Algebra.compensate view3 ~answer
                ~interfering:(Delta.deletion (Chain.tuple ~key:0 ~a:1 ~b:1))
                ~temp)))
  in
  let bench_full_eval =
    Test.make ~name:"full view recompute (3 x 1k)"
      (Staged.stage (fun () -> ignore (Algebra.eval view3 (fun i -> rels.(i)))))
  in
  let bench_delta_apply =
    Test.make ~name:"delta apply to 1k-tuple bag"
      (Staged.stage (fun () ->
           let b = Bag.copy (Relation.as_bag rels.(2)) in
           Bag.merge_into ~into:b delta))
  in
  let bench_sim_round =
    Test.make ~name:"simulated SWEEP run (3 sources, 10 updates)"
      (Staged.stage (fun () ->
           let sc =
             { Scenario.default with
               init_size = 30;
               stream =
                 { Update_gen.default with n_updates = 10; mean_gap = 0.5 } }
           in
           ignore
             (Experiment.run ~check:false sc
                (module Repro_warehouse.Sweep : Repro_warehouse.Algorithm.S))))
  in
  let bench_indexed_probe =
    (* the source-side fast path: probe a persistent index instead of
       building a hash table over the whole relation per query *)
    let tbl =
      Repro_source.Base_table.create ~source:0 ~indexes:[ 2 ] rels.(0)
    in
    Test.make ~name:"sweep step via persistent index (1k tuples)"
      (Staged.stage (fun () ->
           let p = Partial.of_source_delta view3 1 delta in
           ignore
             (Algebra.extend_with_probe view3 p ~source:0
                ~probe:(fun ~col ~value ->
                  Repro_source.Base_table.probe tbl ~col ~value))))
  in
  let bench_sim_round_batched =
    (* tight gaps so the queue actually builds up and sweeps amortize *)
    Test.make ~name:"simulated batched-SWEEP run (3 sources, 10 updates)"
      (Staged.stage (fun () ->
           let sc =
             { Scenario.default with
               init_size = 30;
               stream =
                 { Update_gen.default with n_updates = 10; mean_gap = 0.1 } }
           in
           ignore
             (Experiment.run ~check:false sc
                (module Repro_warehouse.Sweep_batched
                : Repro_warehouse.Algorithm.S))))
  in
  let bench_queue_churn =
    (* the former O(n²) hot spot: append/drain a deep update queue *)
    let upd seq =
      { Repro_protocol.Message.txn = { Repro_protocol.Message.source = 0; seq };
        delta; occurred_at = 0.; global = None }
    in
    Test.make ~name:"update queue churn (1k append + batch drain)"
      (Staged.stage (fun () ->
           let q = Repro_warehouse.Update_queue.create () in
           for seq = 0 to 999 do
             ignore
               (Repro_warehouse.Update_queue.append q (upd seq) ~arrived_at:0.)
           done;
           while
             Repro_warehouse.Update_queue.take q ~max:16 <> []
           do
             ()
           done))
  in
  let bench_parser =
    Test.make ~name:"parse SQL view definition"
      (Staged.stage (fun () ->
           ignore
             (View_parser.parse_exn
                "SELECT R2.D, R3.F FROM R1(A int, B int), R2(C int, D int), \
                 R3(E int, F int) WHERE R1.B = R2.C AND R2.D = R3.E")))
  in
  [ bench_hash_join; bench_sweep_step; bench_indexed_probe; bench_compensate;
    bench_full_eval; bench_delta_apply; bench_queue_churn; bench_parser;
    bench_sim_round; bench_sim_round_batched ]

(* Run the micro-benchmarks and return (name, ns-per-run) estimates;
   tests whose OLS fit fails are dropped. *)
let micro_estimates ?(quota = 0.5) () =
  let open Bechamel in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let instances = Toolkit.Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second quota) ~kde:(Some 1000) ()
  in
  List.concat_map
    (fun test ->
      let results = Benchmark.all cfg instances test in
      let analyzed = Analyze.all ols (List.hd instances) results in
      Hashtbl.fold
        (fun name ols acc ->
          match Analyze.OLS.estimates ols with
          | Some [ est ] when Float.is_finite est -> (name, est) :: acc
          | _ -> acc)
        analyzed []
      |> List.sort compare)
    (micro_tests ())

let run_micro () =
  print_endline
    "MICRO. Bechamel micro-benchmarks of the hot paths (monotonic clock).";
  let rows =
    List.map
      (fun (name, ns) -> [ name; Printf.sprintf "%.0f" ns ])
      (micro_estimates ())
  in
  print_string
    (Report.table ~title:"" ~headers:[ "benchmark"; "ns/run" ] ~rows ())

(* ------------------------------------------------------------------ *)
(* BENCH.json emission (the machine-readable document; see Bench_doc)   *)
(* ------------------------------------------------------------------ *)

let run_bench_json ~scale path =
  let module Obs = Repro_observability.Obs in
  let registry = Repro_observability.Registry.create () in
  let scaled sc =
    let stream = sc.Scenario.stream in
    let n_updates =
      max 5
        (int_of_float (float_of_int stream.Update_gen.n_updates *. scale))
    in
    { sc with Scenario.stream = { stream with Update_gen.n_updates } }
  in
  let scenarios =
    List.filter_map
      (fun name -> Option.map scaled (Scenario.find_preset name))
      (* chaos exercises the resilience counters (query_timeouts,
         breaker_trips, stalled_updates, degraded_time) so the perf gate
         validates them against a run where they are live, not zero *)
      (* read-heavy and flash-crowd exercise the serving counters
         (reads_served/stale/shed, read staleness quantiles) the same
         way *)
      (* self-maint exercises the self-maintenance counters
         (local_answers, aux_bytes, aux_hit_rate) with full aux
         projections — the gate checks messages/update < 1 there *)
      [ "concurrent"; "centralized"; "chaos"; "read-heavy"; "flash-crowd";
        "self-maint" ]
  in
  let experiments =
    List.concat_map
      (fun sc ->
        List.map
          (fun (name, alg) ->
            let obs = Obs.create () in
            let r = Experiment.run ~check:false ~obs sc alg in
            ignore (Bench_doc.register registry ~obs r);
            ( Printf.sprintf "%s/%s" name sc.Scenario.name,
              r.Experiment.wall_seconds ))
          (Experiment.algorithms_for sc))
      scenarios
  in
  let micro = micro_estimates ~quota:(Float.max 0.05 (0.5 *. scale)) () in
  Report.write_json path (Bench_doc.make ~scale ~experiments ~micro registry);
  Printf.printf "wrote %s (%d algorithm entries, %d micro rows)\n" path
    (List.length experiments) (List.length micro)

(* ------------------------------------------------------------------ *)
(* Dispatch                                                             *)
(* ------------------------------------------------------------------ *)

let known = [ "t1"; "f5"; "f2"; "e1"; "e2"; "e3"; "e4"; "e5"; "e6"; "e7"; "e8"; "e9"; "a1"; "a2"; "a3"; "micro" ]

let run_one id =
  match id with
  | "micro" -> run_micro ()
  | _ -> (
      match Paper_experiments.by_id id with
      | Some f -> print_string (f ())
      | None ->
          Printf.eprintf "unknown experiment %S; known: %s\n" id
            (String.concat ", " known);
          exit 2)

let usage () =
  Printf.eprintf "usage: main.exe [%s] [--json-out FILE] [--scale F]\n"
    (String.concat "|" known);
  exit 2

let () =
  let rec parse ids scale json = function
    | [] -> (List.rev ids, scale, json)
    | "--json-out" :: file :: rest -> parse ids scale (Some file) rest
    | "--scale" :: f :: rest -> (
        match float_of_string_opt f with
        | Some s when s > 0. && Float.is_finite s -> parse ids s json rest
        | _ ->
            Printf.eprintf "bad --scale %S (want a positive float)\n" f;
            exit 2)
    | arg :: _ when String.length arg > 2 && String.sub arg 0 2 = "--" ->
        usage ()
    | id :: rest -> parse (id :: ids) scale json rest
  in
  let ids, scale, json =
    parse [] 1.0 None (List.tl (Array.to_list Sys.argv))
  in
  match (json, ids) with
  | Some path, ([] | [ "micro" ]) -> run_bench_json ~scale path
  | Some _, _ ->
      prerr_endline "--json-out only applies to the micro/default mode";
      exit 2
  | None, [] ->
      print_endline
        "Reproduction benchmarks: Efficient View Maintenance at Data \
         Warehouses (SIGMOD'97)";
      print_endline
        "===========================================================================";
      List.iter
        (fun id ->
          print_newline ();
          run_one id;
          print_newline ())
        known
  | None, [ id ] -> run_one id
  | None, _ -> usage ()
