(* Join-strategy differential suite (DESIGN.md §15).

   The two executions of a delta join leg — pairwise (generic hash
   join) and probe (persistent per-column indexes) — must be
   observationally indistinguishable: same final view bag, same event count, same sim
   time, same verdict, same message counters; only the work per leg
   differs. The suite proves it with unit equivalences over the edge
   cases (empty deltas, Null join columns, self-join-shaped specs,
   residuals), then seeded end-to-end storms over the sweep-family
   algorithms, including crash and outage schedules.

   It also pins the indexed-by-default contract: every default-strategy
   run ends with [unindexed_scans = 0] — a probe that silently degraded
   to an O(n) scan fails the suite instead of costing 27×.

   Seed count comes from JOIN_SEEDS (default 5 so `dune runtest` stays
   fast; `make joins` raises it to 100). *)

open Repro_relational
open Repro_sim
open Repro_warehouse
open Repro_consistency
open Repro_harness
open Repro_workload
module Base_table = Repro_source.Base_table

let join_seeds = Rig.seeds_env ~var:"JOIN_SEEDS" ~default:5

(* ————— strategy parsing ————— *)

let test_strategy_strings () =
  List.iter
    (fun (s, j) ->
      Alcotest.(check bool) (Printf.sprintf "parse %S" s) true
        (Join_strategy.of_string s = Some j))
    [ ("pairwise", Join_strategy.Pairwise); ("scan", Join_strategy.Pairwise);
      ("hash", Join_strategy.Pairwise); ("probe", Join_strategy.Probe);
      ("index", Join_strategy.Probe); ("indexed", Join_strategy.Probe) ];
  List.iter
    (fun s ->
      Alcotest.(check bool) (Printf.sprintf "%S rejected" s) true
        (Join_strategy.of_string s = None))
    [ "bogus"; "trie"; "leapfrog" ];
  List.iter
    (fun j ->
      Alcotest.(check bool)
        (Printf.sprintf "round trip %s" (Join_strategy.to_string j))
        true
        (Join_strategy.of_string (Join_strategy.to_string j) = Some j))
    Join_strategy.all;
  Alcotest.(check bool) "probe is the default" true
    (Join_strategy.default = Join_strategy.Probe)

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
      Alcotest.(check bool) (ctx ^ ": probe ≡ pairwise") true
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
  let rng = Repro_sim.Rng.create (Int64.of_int (7000 + seed)) in
  let rand_rel n domain =
    Relation.of_list
      (List.init n (fun k ->
           ( Chain.tuple ~key:k
               ~a:(Repro_sim.Rng.int rng domain)
               ~b:(Repro_sim.Rng.int rng domain),
             1 + Repro_sim.Rng.int rng 2 )))
  in
  let r_src = rand_rel (8 + Repro_sim.Rng.int rng 20) 5 in
  let frontier =
    Delta.of_list
      (List.init
         (1 + Repro_sim.Rng.int rng 4)
         (fun k ->
           ( Chain.tuple ~key:(100 + k)
               ~a:(Repro_sim.Rng.int rng 5)
               ~b:(Repro_sim.Rng.int rng 5),
             if Repro_sim.Rng.bool rng 0.3 then -1 else 1 )))
  in
  let partial = { Partial.lo = 1; hi = 1; data = frontier } in
  check_leg_equivalence
    ~ctx:(Printf.sprintf "seed %d left leg" seed)
    view3 partial ~source:0 r_src;
  check_leg_equivalence
    ~ctx:(Printf.sprintf "seed %d right leg" seed)
    view3 partial ~source:2 r_src

let leg_random_case () = Rig.for_seeds join_seeds check_leg_random

(* ————— end-to-end: strategies are observationally identical ————— *)

let algorithms =
  [ ("sweep", (module Sweep : Algorithm.S));
    ("sweep-batched", (module Sweep_batched : Algorithm.S));
    ("nested-sweep", (module Nested_sweep : Algorithm.S));
    ("strobe", (module Strobe : Algorithm.S)) ]

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

(* Run [sc] under the probe strategy and demand full observational
   identity with the pairwise reference: view, events, sim time,
   verdict, message counters. Default-strategy runs must additionally
   never degrade to an unindexed scan. *)
let check_strategies ~tag algo sc =
  let run strategy =
    Experiment.run { sc with Scenario.join_strategy = strategy } algo
  in
  let ref_run = run Join_strategy.Pairwise in
  Alcotest.(check bool) (tag ^ ": pairwise run drains") true
    ref_run.Experiment.completed;
  let ctx = tag ^ " probe" in
  let r = run Join_strategy.Probe in
  Alcotest.check Rig.bag (ctx ^ ": final view ≡ pairwise")
    ref_run.Experiment.final_view r.Experiment.final_view;
  Alcotest.(check int) (ctx ^ ": same events")
    ref_run.Experiment.events r.Experiment.events;
  Alcotest.(check (float 0.)) (ctx ^ ": same sim time")
    ref_run.Experiment.sim_time r.Experiment.sim_time;
  Alcotest.check Rig.verdict (ctx ^ ": same verdict")
    ref_run.Experiment.verdict.Checker.verdict
    r.Experiment.verdict.Checker.verdict;
  Alcotest.(check int) (ctx ^ ": same queries sent")
    ref_run.Experiment.metrics.Metrics.queries_sent
    r.Experiment.metrics.Metrics.queries_sent;
  Alcotest.(check int) (ctx ^ ": no probe degraded to a scan") 0
    r.Experiment.metrics.Metrics.unindexed_scans

let check_differential ~tag algo seed =
  let sc = base_scenario seed in
  check_strategies ~tag:(Printf.sprintf "%s seed %d" tag seed) algo sc;
  check_strategies ~tag:(Printf.sprintf "%s seed %d crash" tag seed) algo
    (crashy sc);
  check_strategies ~tag:(Printf.sprintf "%s seed %d outage" tag seed) algo
    (outage sc)

let diff_case ~tag algo () = Rig.for_seeds join_seeds (check_differential ~tag algo)

(* ————— indexed-by-default: presets never scan ————— *)

let test_default_never_scans () =
  List.iter
    (fun preset ->
      let sc = Option.get (Scenario.find_preset preset) in
      let algo = Option.get (Experiment.algorithm_by_name "sweep") in
      let r = Experiment.run sc algo in
      Alcotest.(check int)
        (Printf.sprintf "%s: default strategy never scans" preset)
        0 r.Experiment.metrics.Metrics.unindexed_scans;
      (* ECA's centralized site routes through the same dispatch *)
      if preset = "centralized" then begin
        let eca = Option.get (Experiment.algorithm_by_name "eca") in
        let r = Experiment.run sc eca in
        Alcotest.(check int) "centralized eca: never scans" 0
          r.Experiment.metrics.Metrics.unindexed_scans
      end)
    [ "sequential"; "concurrent"; "centralized"; "self-maint" ]

let suite =
  [ Alcotest.test_case "strategy: parse and print" `Quick
      test_strategy_strings;
    Alcotest.test_case "leg equivalence: edge cases" `Quick
      test_leg_edge_cases;
    Alcotest.test_case "leg equivalence: randomized" `Slow leg_random_case;
    Alcotest.test_case "presets: default strategy never scans" `Slow
      test_default_never_scans;
    Alcotest.test_case "differential: sweep" `Slow
      (diff_case ~tag:"sweep" (module Sweep : Algorithm.S));
    Alcotest.test_case "differential: sweep-batched" `Slow
      (diff_case ~tag:"sweep-batched" (module Sweep_batched : Algorithm.S));
    Alcotest.test_case "differential: nested-sweep" `Slow
      (diff_case ~tag:"nested-sweep" (module Nested_sweep : Algorithm.S));
    Alcotest.test_case "differential: strobe" `Slow
      (diff_case ~tag:"strobe" (module Strobe : Algorithm.S)) ]
