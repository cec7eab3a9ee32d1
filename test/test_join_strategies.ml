(* Indexed join-leg suite (DESIGN.md §15).

   Every delta join leg — at a source, at the centralized ECA site and
   in the warehouse's aux store — probes a persistent per-column index
   (Algebra.extend_with_probe); only a cross-product junction, which has
   no equality to probe, falls back to the generic hash join
   (Algebra.extend). The suite pins that one execution three ways:

   - leg equivalence: the probe path equals the hash join over the edge
     cases (empty deltas, Null join columns, self-join-shaped specs,
     residuals) and over randomized legs;
   - the cross-product fallback: a residual-only junction answers the
     same through Base_table.extend (source and ECA site) and
     Aux_store.local_answer, and a scripted SWEEP over it is Complete;
   - interference correction: Update_queue.correct, which probes the
     queue's per-source index of queued deltas, equals Delta.sum +
     Algebra.compensate on random partials, across an equality and a
     cross-product junction, with batched extras that net to empty;
   - end to end: seeded sweep-family runs, including crash and outage
     schedules, drain at their algorithm's consistency floor, end on
     the from-scratch Algebra.eval of the final sources, and never
     degrade a probe to an unindexed scan — a probe that silently
     became an O(n) scan fails the suite instead of costing 27×.

   Seed count comes from JOIN_SEEDS (default 5 so `dune runtest` stays
   fast; `make joins` raises it to 100). *)

open Repro_relational
open Repro_sim
open Repro_protocol
open Repro_warehouse
open Repro_consistency
open Repro_harness
open Repro_workload
module Base_table = Repro_source.Base_table
module Source_node = Repro_source.Source_node
module Eca_site = Repro_source.Eca_site

let join_seeds = Rig.seeds_env ~var:"JOIN_SEEDS" ~default:5

(* ————— leg equivalence: extend ≡ extend_with_probe ————— *)

let view3 = Chain.view ~n:3 ()

(* Execute one leg both ways over [r_src] at [source] and demand
   identical partials. *)
let check_leg_equivalence ~ctx view partial ~source r_src =
  let tbl = Base_table.create ~source ~view r_src in
  let generic = Algebra.extend view partial ~with_relation:(source, r_src) in
  match
    Algebra.extend_with_probe view partial ~source
      ~probe:(fun ~col ~value -> Base_table.probe tbl ~col ~value)
  with
  | None -> Alcotest.fail (ctx ^ ": probe path declined an equality junction")
  | Some p ->
      Alcotest.(check bool) (ctx ^ ": probe ≡ hash join") true
        (Partial.equal p generic)

let test_leg_edge_cases () =
  let r_src =
    Relation.of_list
      [ (Chain.tuple ~key:0 ~a:1 ~b:2, 1); (Chain.tuple ~key:1 ~a:2 ~b:2, 2);
        (Chain.tuple ~key:2 ~a:3 ~b:1, 1) ]
  in
  (* empty delta frontier *)
  let empty = { Partial.lo = 1; hi = 1; data = Delta.empty () } in
  check_leg_equivalence ~ctx:"empty delta" view3 empty ~source:0 r_src;
  check_leg_equivalence ~ctx:"empty delta right" view3 empty ~source:2 r_src;
  (* Null join columns on both sides: Null keys group and match like any
     other value, on every path *)
  let null_tuple k = [| Value.int k; Value.Null; Value.Null |] in
  let r_null =
    Relation.of_list [ (null_tuple 0, 1); (Chain.tuple ~key:1 ~a:1 ~b:1, 1) ]
  in
  let p_null =
    { Partial.lo = 1; hi = 1;
      data = Delta.of_list [ (null_tuple 7, 1); (Chain.tuple ~key:8 ~a:1 ~b:1, 2) ] }
  in
  check_leg_equivalence ~ctx:"Null join columns" view3 p_null ~source:0 r_null;
  check_leg_equivalence ~ctx:"Null join columns right" view3 p_null ~source:2
    r_null;
  (* self-join-shaped spec: identical schemas joined on the same local
     column, plus a second equality and a residual on the junction *)
  let self =
    View_def.make ~name:"self" ~schemas:(Chain.schemas ~n:2)
      ~joins:
        [| Join_spec.make
             ~residual:(Predicate.cmp_const Predicate.Ge 0 (Value.int 0))
             [ (1, 4); (2, 5) ] |]
      ~projection:[| 0; 3 |] ()
  in
  let p_self =
    { Partial.lo = 1; hi = 1;
      data =
        Delta.of_list
          [ (Chain.tuple ~key:0 ~a:1 ~b:2, 1);
            (Chain.tuple ~key:1 ~a:2 ~b:2, 1) ] }
  in
  let r_self =
    Relation.of_list
      [ (Chain.tuple ~key:5 ~a:1 ~b:2, 1); (Chain.tuple ~key:6 ~a:1 ~b:3, 1);
        (Chain.tuple ~key:7 ~a:2 ~b:2, 2) ]
  in
  check_leg_equivalence ~ctx:"self-join shape" self p_self ~source:0 r_self

(* Randomized leg equivalence: dense and sparse key overlap, deletions
   in the frontier (negative counts), multiplicities. *)
let check_leg_random seed =
  let rng = Rng.create (Int64.of_int (7000 + seed)) in
  let rand_rel n domain =
    Relation.of_list
      (List.init n (fun k ->
           ( Chain.tuple ~key:k ~a:(Rng.int rng domain) ~b:(Rng.int rng domain),
             1 + Rng.int rng 2 )))
  in
  let r_src = rand_rel (8 + Rng.int rng 20) 5 in
  let frontier =
    Delta.of_list
      (List.init
         (1 + Rng.int rng 4)
         (fun k ->
           ( Chain.tuple ~key:(100 + k) ~a:(Rng.int rng 5) ~b:(Rng.int rng 5),
             if Rng.bool rng 0.3 then -1 else 1 )))
  in
  let partial = { Partial.lo = 1; hi = 1; data = frontier } in
  check_leg_equivalence
    ~ctx:(Printf.sprintf "seed %d left leg" seed)
    view3 partial ~source:0 r_src;
  check_leg_equivalence
    ~ctx:(Printf.sprintf "seed %d right leg" seed)
    view3 partial ~source:2 r_src

let leg_random_case () = Rig.for_seeds join_seeds check_leg_random

(* ————— the cross-product fallback through the shared leg ————— *)

(* R0.b = R1.a, then a residual-only junction R1.b < R2.a: it has no
   equality to probe, so every leg across it takes the hash-join
   fallback while legs across the first junction still probe. *)
let theta_view =
  View_def.make ~name:"theta" ~schemas:(Chain.schemas ~n:3)
    ~joins:
      [| Join_spec.natural ~left_attr:2 ~right_attr:4;
         Join_spec.make
           ~residual:
             (Predicate.Cmp (Predicate.Lt, Predicate.Attr 5, Predicate.Attr 7))
           [] |]
    ~projection:[| 0; 3; 6 |] ()

let theta_row i k = Chain.tuple ~key:k ~a:((k + i) mod 3) ~b:(k mod 3)

let theta_initial () =
  Array.init 3 (fun i -> Relation.of_tuples (List.init 4 (theta_row i)))

(* [p] carried to view tuples: hash-joined with the base relations it
   does not span yet, then selected and projected. *)
let through_view rels (p : Partial.t) =
  let extend p j = Algebra.extend theta_view p ~with_relation:(j, rels.(j)) in
  let rec widen (p : Partial.t) =
    if p.lo > 0 then widen (extend p (p.lo - 1))
    else if p.hi < 2 then widen (extend p (p.hi + 1))
    else p
  in
  Algebra.select_project theta_view (widen p)

(* The answer every execution of leg [partial ⋈ R_target] must give. *)
let check_fallback_leg ~ctx rels partial ~target =
  let view = theta_view in
  let expected =
    Algebra.extend view partial ~with_relation:(target, rels.(target))
  in
  let same what got =
    Alcotest.(check bool) (Printf.sprintf "%s: %s ≡ hash join" ctx what) true
      (Partial.equal expected got)
  in
  Alcotest.(check bool) (ctx ^ ": the junction has no equality to probe") true
    (Algebra.extend_with_probe view partial ~source:target
       ~probe:(fun ~col:_ ~value:_ -> Alcotest.fail "probed a cross product")
    = None);
  let tbl = Base_table.create ~source:target ~view rels.(target) in
  same "Base_table.extend" (Base_table.extend tbl view partial);
  Alcotest.(check int) (ctx ^ ": the fallback never probes") 0
    (Base_table.scan_count tbl);
  (* the source's and the ECA site's sweep-query service *)
  let engine = Engine.create ~seed:1L () in
  let trace = Trace.create ~enabled:false () in
  let answered = ref None in
  let send = function
    | Message.Answer { partial; _ } -> answered := Some partial
    | _ -> Alcotest.fail (ctx ^ ": expected a sweep answer")
  in
  let query = Message.Sweep_query { qid = 0; target; partial } in
  let served () =
    match !answered with
    | Some p -> answered := None; p
    | None -> Alcotest.fail (ctx ^ ": no answer sent")
  in
  Source_node.handle
    (Source_node.create engine ~view ~id:target ~init:rels.(target) ~send
       ~trace)
    query;
  same "source node" (served ());
  Eca_site.handle (Eca_site.create engine ~view ~inits:rels ~send ~trace) query;
  same "ECA site" (served ());
  (* the warehouse's local answer from full aux projections; it lifts
     untracked columns as Null placeholders, so it is compared where
     those are discarded, after the view's projection *)
  let aux = Aux_store.create ~view ~mode:Aux_store.Full ~initial:rels () in
  match
    Aux_store.local_answer aux ~target ~partial ~overlay:(Delta.empty ())
  with
  | Some got ->
      Alcotest.(check bool)
        (ctx ^ ": Aux_store.local_answer ≡ hash join, projected")
        true
        (Delta.equal (through_view rels expected) (through_view rels got))
  | None -> Alcotest.fail (ctx ^ ": full aux left the leg remote")

let test_fallback_legs () =
  let rels = theta_initial () in
  let d1 =
    Delta.of_list [ (Chain.tuple ~key:9 ~a:1 ~b:0, 1); (theta_row 1 2, -1) ]
  in
  let d2 =
    Delta.of_list [ (Chain.tuple ~key:9 ~a:2 ~b:1, 1); (theta_row 2 0, -1) ]
  in
  (* rightward across the cross product: [R0 ⋈ ΔR1] extended by R2 *)
  let left_pair =
    Algebra.extend theta_view (Partial.of_source_delta theta_view 1 d1)
      ~with_relation:(0, rels.(0))
  in
  check_fallback_leg ~ctx:"rightward leg" rels left_pair ~target:2;
  (* leftward across the cross product: ΔR2 extended by R1 *)
  check_fallback_leg ~ctx:"leftward leg" rels
    (Partial.of_source_delta theta_view 2 d2) ~target:1;
  (* an ECA query term pinned at R2 fans out through both junctions *)
  let site =
    Eca_site.create (Engine.create ~seed:1L ()) ~view:theta_view ~inits:rels
      ~send:ignore ~trace:(Trace.create ~enabled:false ())
  in
  let pinned = Partial.of_source_delta theta_view 2 d2 in
  let expected =
    Algebra.extend theta_view
      (Algebra.extend theta_view pinned ~with_relation:(1, rels.(1)))
      ~with_relation:(0, rels.(0))
  in
  Alcotest.(check bool) "ECA term across the cross product ≡ hash joins" true
    (Partial.equal expected (Eca_site.eval_terms site [ [ (2, d2) ] ]))

(* Interleaved inserts and deletes at every source, closer together
   than a round trip, so legs across the cross product run against
   relations that changed under them and must be compensated. *)
let theta_updates =
  [ (0.0, 0, Delta.insertion (Chain.tuple ~key:10 ~a:1 ~b:2));
    (0.3, 2, Delta.insertion (Chain.tuple ~key:11 ~a:2 ~b:0));
    (0.6, 1, Delta.deletion (theta_row 1 1));
    (0.9, 2, Delta.deletion (theta_row 2 0));
    (1.2, 1, Delta.insertion (Chain.tuple ~key:12 ~a:2 ~b:0));
    (1.5, 0, Delta.deletion (theta_row 0 3));
    (1.8, 1, Delta.insertion (Chain.tuple ~key:13 ~a:0 ~b:1)) ]

let test_fallback_sweep () =
  List.iter
    (fun aux_mode ->
      let outcome =
        Experiment.run_scripted ~trace_enabled:false ~aux_mode
          ~algorithm:(module Sweep : Algorithm.S)
          ~view:theta_view ~initial:(theta_initial ()) ~updates:theta_updates
          ()
      in
      let ctx = "aux " ^ Aux_store.mode_to_string aux_mode in
      Alcotest.check Rig.verdict (ctx ^ ": SWEEP is complete") Checker.Complete
        (Experiment.check_scripted outcome).Checker.verdict;
      Alcotest.(check int) (ctx ^ ": every update incorporated")
        (List.length theta_updates)
        (Node.metrics outcome.Experiment.node).Metrics.updates_incorporated)
    [ Aux_store.Off; Aux_store.Full ]

(* ————— interference correction: probe ≡ Delta.sum + compensate ————— *)

(* A random tuple of the partial covering [lo..hi]: one chain tuple per
   covered source, over a tiny domain so probes find matches. *)
let random_partial rng ~lo ~hi =
  let row () =
    Chain.tuple ~key:(Rng.int rng 4) ~a:(Rng.int rng 3) ~b:(Rng.int rng 3)
  in
  let tuple () =
    List.fold_left Tuple.concat (row ())
      (List.init (hi - lo) (fun _ -> row ()))
  in
  { Partial.lo; hi;
    data =
      Delta.of_list
        (List.init (Rng.int rng 4) (fun _ ->
             (tuple (), if Rng.bool rng 0.3 then -1 else 1))) }

let random_source_delta rng =
  Delta.of_list
    (List.init (1 + Rng.int rng 2) (fun _ ->
         ( Chain.tuple ~key:(Rng.int rng 4) ~a:(Rng.int rng 3)
             ~b:(Rng.int rng 3),
           if Rng.bool rng 0.4 then -1 else 1 )))

(* One seed: a queue that grows and drains between corrections, each
   correction checked against the summed path on the chain view (every
   junction probes) and on [theta_view] (R1–R2 is a cross product). The
   extras — a batch's own D_j and later batches' updates — sometimes
   negate exactly what is queued, so ΔR_j nets to empty. *)
let check_correction_seed seed =
  let rng = Rng.create (Int64.of_int (8300 + seed)) in
  let q = Update_queue.create () and seq = ref 0 in
  for round = 1 to 30 do
    for _ = 0 to Rng.int rng 4 do
      incr seq;
      ignore
        (Update_queue.append q
           { Message.txn = { Message.source = Rng.int rng 3; seq = !seq };
             delta = random_source_delta rng; occurred_at = 0.;
             global = None }
           ~arrived_at:0.)
    done;
    ignore (Update_queue.take q ~max:(Rng.int rng 3));
    List.iter
      (fun (name, view) ->
        let j = Rng.int rng 3 in
        let lo, hi =
          match j with
          | 0 -> (1, 1 + Rng.int rng 2)
          | 2 -> (Rng.int rng 2, 1)
          | _ -> if Rng.bool rng 0.5 then (0, 0) else (2, 2)
        in
        let temp = random_partial rng ~lo ~hi in
        let answer =
          random_partial rng ~lo:(min lo j) ~hi:(max hi j)
        in
        let queued =
          List.filter_map
            (fun (e : Update_queue.entry) ->
              if e.update.Message.txn.Message.source = j then
                Some e.update.Message.delta
              else None)
            (Update_queue.entries q)
        in
        let extras =
          match Rng.int rng 3 with
          | 0 -> []
          | 1 -> [ random_source_delta rng ]
          | _ -> [ Delta.negate (Delta.sum queued) ]
        in
        let ctx =
          Printf.sprintf "seed %d round %d %s: ΔR%d ⋈ [%d..%d]" seed round
            name j lo hi
        in
        let interfering = Delta.sum (extras @ queued) in
        let expected = Algebra.compensate view ~answer ~interfering ~temp in
        Alcotest.(check bool) (ctx ^ ": probe ≡ Delta.sum + compensate")
          true
          (Partial.equal expected
             (Update_queue.correct q view ~source:j ~extras ~answer ~temp));
        Alcotest.(check bool) (ctx ^ ": net-empty test") (Delta.is_empty interfering)
          (Update_queue.interference_empty q view ~source:j ~extras ~temp))
      [ ("chain", view3); ("theta", theta_view) ]
  done

let correction_case () = Rig.for_seeds join_seeds check_correction_seed

(* ————— end to end: drained at the floor, on the oracle, no scans ————— *)

(* name, algorithm, consistency floor on fault-free and crash runs *)
let algorithms =
  [ ("sweep", (module Sweep : Algorithm.S), Checker.Complete);
    ("sweep-batched", (module Sweep_batched : Algorithm.S), Checker.Complete);
    ("nested-sweep", (module Nested_sweep : Algorithm.S), Checker.Strong);
    ("strobe", (module Strobe : Algorithm.S), Checker.Strong) ]

let base_scenario seed =
  { Scenario.default with
    Scenario.name = "join-diff";
    n_sources = 4;
    init_size = 12;
    domain = 6;
    stream =
      { Update_gen.default with Update_gen.n_updates = 40; mean_gap = 0.7 };
    seed = Int64.of_int seed }

let crashy sc =
  { sc with
    Scenario.name = "join-crash";
    faults =
      { Fault.link = Fault.lossy ~drop:0.05 ~duplicate:0.05 ();
        crashes = [];
        wh_crashes =
          [ { Fault.wh_down_at = 6.; wh_up_at = 14. };
            { Fault.wh_down_at = 22.; wh_up_at = 30. } ] } }

let outage sc =
  { sc with
    Scenario.name = "join-outage";
    deadline = Some 8.;
    breaker_k = 3;
    probe_limit = 0;
    stall_cap = 64;
    faults =
      { Fault.link = Fault.lossy ~drop:0.1 ~duplicate:0.05 ();
        crashes = [ { Fault.source = 1; down_at = 8.; up_at = 20. } ];
        wh_crashes = [] } }

(* Run [sc] and demand: it drains at [floor] or better, no probe
   degraded to an unindexed scan, and the final view equals the
   from-scratch [Algebra.eval] of the final sources — the checker's
   convergence oracle, recomputed here from the regenerated initial
   sources plus every delivered update. Deliveries are captured by a
   listener, which survives warehouse crash recovery (the node itself
   is replaced) and stays silent during WAL replay. *)
let check_run ~ctx ~floor algo (sc : Scenario.t) =
  let initial_view = ref (Bag.create ()) in
  let rev_deliveries = ref [] in
  let on_node node =
    initial_view := Bag.copy (Node.initial_view node);
    Node.add_delivery_listener node (fun u ->
        rev_deliveries := u :: !rev_deliveries)
  in
  let r = Experiment.run ~on_node sc algo in
  Alcotest.(check bool) (ctx ^ ": run drains") true r.Experiment.completed;
  let v = r.Experiment.verdict.Checker.verdict in
  Alcotest.(check bool)
    (Printf.sprintf "%s: verdict at least %s (got %s)" ctx
       (Checker.verdict_to_string floor)
       (Checker.verdict_to_string v))
    true
    (Checker.compare_verdict v floor <= 0);
  Alcotest.(check int) (ctx ^ ": no probe degraded to a scan") 0
    r.Experiment.metrics.Metrics.unindexed_scans;
  let view = Chain.view ~n:sc.Scenario.n_sources () in
  let sources = Rig.initial_sources sc view in
  let oracle () = Relation.as_bag (Algebra.eval view (fun i -> sources.(i))) in
  Alcotest.check Rig.bag (ctx ^ ": regenerated sources give the initial view")
    !initial_view (oracle ());
  List.iter
    (fun (u : Message.update) ->
      match Relation.apply sources.(u.txn.Message.source) u.delta with
      | Ok () -> ()
      | Error _ -> Alcotest.fail (ctx ^ ": a delivered delete has no tuple"))
    (List.rev !rev_deliveries);
  Alcotest.check Rig.bag (ctx ^ ": final view ≡ Algebra.eval oracle")
    (oracle ()) r.Experiment.final_view

let check_seed ~tag ~floor algo seed =
  let sc = base_scenario seed in
  let ctx what = Printf.sprintf "%s seed %d%s" tag seed what in
  check_run ~ctx:(ctx "") ~floor algo sc;
  check_run ~ctx:(ctx " crash") ~floor algo (crashy sc);
  (* the chaos suite's floor: parked legs replay after the outage *)
  check_run ~ctx:(ctx " outage") ~floor:Checker.Strong algo (outage sc)

let seeds_case ~tag ~floor algo () =
  Rig.for_seeds join_seeds (check_seed ~tag ~floor algo)

(* ————— indexed by default: presets never scan ————— *)

let test_presets_never_scan () =
  List.iter
    (fun preset ->
      let sc = Option.get (Scenario.find_preset preset) in
      let algo = Option.get (Experiment.algorithm_by_name "sweep") in
      let r = Experiment.run sc algo in
      Alcotest.(check int)
        (Printf.sprintf "%s: indexed legs never scan" preset)
        0 r.Experiment.metrics.Metrics.unindexed_scans;
      (* ECA's centralized site runs the same leg *)
      if preset = "centralized" then begin
        let eca = Option.get (Experiment.algorithm_by_name "eca") in
        let r = Experiment.run sc eca in
        Alcotest.(check int) "centralized eca: never scans" 0
          r.Experiment.metrics.Metrics.unindexed_scans
      end)
    [ "sequential"; "concurrent"; "centralized"; "self-maint" ]

let suite =
  [ Alcotest.test_case "leg equivalence: edge cases" `Quick
      test_leg_edge_cases;
    Alcotest.test_case "leg equivalence: randomized" `Slow leg_random_case;
    Alcotest.test_case "cross-product fallback: legs" `Quick
      test_fallback_legs;
    Alcotest.test_case "cross-product fallback: sweep" `Quick
      test_fallback_sweep;
    Alcotest.test_case "presets: indexed legs never scan" `Slow
      test_presets_never_scan;
    Alcotest.test_case "correction differential: randomized" `Quick
      correction_case ]
  @ List.map
      (fun (tag, algo, floor) ->
        Alcotest.test_case ("differential: " ^ tag) `Slow
          (seeds_case ~tag ~floor algo))
      algorithms
