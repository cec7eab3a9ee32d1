(* Checker differential suite.

   The single-pass indexed checker (Repro_consistency.Checker) must grade
   every history exactly as the multi-replay checker it replaced, kept
   verbatim as the test-only oracle Checker_reference: same verdict, same
   detail text, same states_checked. The histories are real ones:

   - seeded runs of the `concurrent` preset under sweep, sweep-batched,
     nested-sweep, strobe, c-strobe and naive (naive covers
     Inconsistent);
   - the `chaos` preset's degraded runs: breakers open mid-run, updates
     park and replay, and the warehouse crashes and recovers (sweep
     grades Strong there);
   - the same preset with source 3 down for good, cut off before it can
     drain and graded with [~degraded:true] (the Degraded path).

   The history is captured from the warehouse node [Experiment.run
   ?on_node] hands out, through its listeners, which survive crash
   recovery and stay silent during WAL replay: every delivery, and every
   install's txns and view-level delta, folded onto the initial view to
   rebuild the snapshot. A completed run must also have graded that same
   history itself.

   Seed count comes from CHECKER_SEEDS (default 5 so `dune runtest`
   stays fast; `make checker` raises it to 100). *)

open Repro_relational
open Repro_sim
open Repro_warehouse
open Repro_consistency
open Repro_harness
open Repro_workload

let checker_seeds = Rig.seeds_env ~var:"CHECKER_SEEDS" ~default:5

(* Run [name] on [sc], grade the captured history with both checkers and
   demand identical results; returns the verdict. *)
let differential ?(max_events = 400_000) ?degraded ~ctx (sc : Scenario.t)
    name =
  let alg =
    match Experiment.algorithm_by_name ~batch_max:sc.Scenario.batch_max name with
    | Some a -> a
    | None -> Alcotest.failf "unknown algorithm %s" name
  in
  let initial_view = ref (Bag.create ()) in
  let view_now = ref (Bag.create ()) in
  let rev_deliveries = ref [] in
  let rev_snapshots = ref [] in
  let rev_txns = ref [] in
  let on_node node =
    initial_view := Bag.copy (Node.initial_view node);
    view_now := Bag.copy !initial_view;
    Node.add_delivery_listener node (fun u ->
        rev_deliveries := u :: !rev_deliveries);
    Node.add_install_listener node (fun delta ->
        Bag.merge_into ~into:!view_now delta;
        rev_snapshots := Bag.copy !view_now :: !rev_snapshots);
    Node.add_install_txns_listener node (fun txns ->
        rev_txns := txns :: !rev_txns)
  in
  let r = Experiment.run ~max_events ~on_node sc alg in
  let view = Chain.view ~n:sc.Scenario.n_sources () in
  let initial = Rig.initial_sources sc view in
  Alcotest.check Rig.bag (ctx ^ ": regenerated sources give the initial view")
    !initial_view
    (Relation.as_bag (Algebra.eval view (fun i -> initial.(i))));
  let deliveries = List.rev !rev_deliveries in
  let installs = List.combine (List.rev !rev_txns) (List.rev !rev_snapshots) in
  let final_view = !view_now in
  let degraded = Option.value ~default:r.Experiment.degraded degraded in
  let got =
    Checker.check ~degraded view
      { Checker.initial_sources = initial; deliveries; installs; final_view }
  in
  let want =
    Checker_reference.check ~degraded view
      { Checker_reference.initial_sources = initial; deliveries; installs;
        final_view }
  in
  Alcotest.(check string) (ctx ^ ": verdict")
    (Checker_reference.verdict_to_string want.Checker_reference.verdict)
    (Checker.verdict_to_string got.Checker.verdict);
  Alcotest.(check string) (ctx ^ ": detail") want.Checker_reference.detail
    got.Checker.detail;
  Alcotest.(check int) (ctx ^ ": states checked")
    want.Checker_reference.states_checked got.Checker.states_checked;
  if r.Experiment.completed then begin
    let own = r.Experiment.verdict in
    Alcotest.(check string) (ctx ^ ": the run graded the same history")
      got.Checker.detail own.Checker.detail;
    Alcotest.(check int) (ctx ^ ": the run checked as many states")
      got.Checker.states_checked own.Checker.states_checked
  end;
  got.Checker.verdict

let preset name =
  match Scenario.find_preset name with
  | Some sc -> sc
  | None -> Alcotest.failf "no %s preset" name

(* Runs every (seed, algorithm) pair and returns the verdicts seen. *)
let sweep_seeds ~label ?max_events ?degraded scenario algorithms =
  let seen = ref [] in
  Rig.for_seeds checker_seeds (fun seed ->
      List.iter
        (fun name ->
          let v =
            differential ?max_events ?degraded
              ~ctx:(Printf.sprintf "%s %s seed %d" label name seed)
              (scenario seed) name
          in
          if not (List.mem v !seen) then seen := v :: !seen)
        algorithms);
  !seen

let reached ~label seen v =
  Alcotest.(check bool)
    (Printf.sprintf "%s: some run graded %s" label
       (Checker.verdict_to_string v))
    true (List.mem v seen)

let test_concurrent () =
  let seen =
    sweep_seeds ~label:"concurrent"
      (fun seed -> { (preset "concurrent") with Scenario.seed = Int64.of_int seed })
      [ "sweep"; "sweep-batched"; "nested-sweep"; "strobe"; "c-strobe";
        "naive" ]
  in
  List.iter (reached ~label:"concurrent" seen)
    [ Checker.Complete; Checker.Inconsistent ]

let test_chaos () =
  let seen =
    sweep_seeds ~label:"chaos"
      (fun seed -> { (preset "chaos") with Scenario.seed = Int64.of_int seed })
      [ "sweep"; "nested-sweep"; "strobe" ]
  in
  List.iter (reached ~label:"chaos" seen) [ Checker.Complete; Checker.Strong ]

(* Source 3's outage never ends and its breaker gives up after two
   probes. Frames it left unacknowledged retransmit forever, so the run
   never drains: it is cut off and the history up to the cut is graded
   as a degraded run. *)
let chaos_outage seed =
  let sc = preset "chaos" in
  let faults = sc.Scenario.faults in
  { sc with
    Scenario.seed = Int64.of_int seed;
    probe_limit = 2;
    faults =
      { faults with
        Fault.crashes =
          List.map
            (fun (w : Fault.window) ->
              if w.Fault.source = 3 then { w with Fault.up_at = 1e12 } else w)
            faults.Fault.crashes } }

let test_chaos_outage () =
  let seen =
    sweep_seeds ~label:"chaos outage" ~max_events:50_000 ~degraded:true
      chaos_outage
      [ "sweep"; "nested-sweep"; "strobe" ]
  in
  reached ~label:"chaos outage" seen Checker.Degraded

let suite =
  [ Alcotest.test_case "differential: concurrent preset" `Quick
      test_concurrent;
    Alcotest.test_case "differential: chaos preset" `Quick test_chaos;
    Alcotest.test_case "differential: chaos, permanent outage" `Quick
      test_chaos_outage ]
