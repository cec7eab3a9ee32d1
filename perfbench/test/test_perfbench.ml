(* The benchmark's own checks: its wiring matches Experiment.run_scripted,
   its wrappers change no deterministic output, and its correctness gate
   catches a wrong view. *)

open Repro_relational
open Repro_warehouse
open Repro_consistency
open Perfbench
module Experiment = Repro_harness.Experiment

let small =
  { Inputs.sources = 3; tuples = 12; mean_gap = 0.6; updates = 60; reads = 60 }

let inputs () = Inputs.generate ~seed:11L small

let fields =
  Alcotest.testable
    (fun ppf fs ->
      List.iter
        (fun (k, v) ->
          match v with
          | `Int i -> Format.fprintf ppf "%s=%d " k i
          | `Float f -> Format.fprintf ppf "%s=%h " k f)
        fs)
    ( = )

let bag = Alcotest.testable Bag.pp Bag.equal

let verdict =
  Alcotest.testable Checker.pp_verdict (fun a b -> a = b)

(* With fixed latency and the history on, the benchmark's wiring is the
   scripted harness's: same views, counters and verdicts. *)
let matches_scripted aux names () =
  let inputs = inputs () in
  List.iter
    (fun name ->
      let algorithm = Workload.algorithm name in
      let config =
        { Workload.base with
          latency = Repro_sim.Latency.Fixed 1.0; aux; history = true }
      in
      let rig = Rig.create ~seed:7L config inputs algorithm in
      ignore (Rig.drain rig);
      let reference =
        Experiment.run_scripted ~latency:1.0 ~seed:7L ~trace_enabled:false
          ~aux_mode:aux ~algorithm ~view:inputs.view
          ~initial:(Array.map Relation.copy inputs.initial)
          ~updates:(Array.to_list inputs.updates) ()
      in
      Alcotest.check bag (name ^ " view")
        (Node.view_contents reference.node) (Rig.view rig);
      Alcotest.check fields (name ^ " metrics")
        (Metrics.fields (Node.metrics reference.node))
        (Metrics.fields (Rig.metrics rig));
      let expected = Experiment.check_scripted reference
      and got = Rig.check rig in
      Alcotest.check verdict (name ^ " verdict") expected.verdict got.verdict;
      Alcotest.(check int)
        (name ^ " states checked") expected.states_checked got.states_checked)
    names

(* The traced pass does the untraced pass's work: identical views,
   counters, staleness samples, event counts and verdicts. *)
let traced_is_untraced (w : Workload.t) () =
  let inputs = inputs () in
  List.iter
    (fun name ->
      let run spans =
        let rig =
          Rig.create ?spans ~seed:3L w.config inputs (Workload.algorithm name)
        in
        ignore (Rig.drain rig);
        let v = if w.config.history then Some (Rig.check rig).verdict else None in
        (rig, v)
      in
      let sp = Spans.create () in
      let plain, v0 = run None and traced, v1 = run (Some sp) in
      Alcotest.check bag (name ^ " view") (Rig.view plain) (Rig.view traced);
      Alcotest.check fields (name ^ " metrics")
        (Metrics.fields (Rig.metrics plain))
        (Metrics.fields (Rig.metrics traced));
      Alcotest.(check (array (float 0.)))
        (name ^ " staleness") (Rig.staleness plain) (Rig.staleness traced);
      Alcotest.(check int)
        (name ^ " events")
        (Repro_sim.Engine.executed plain.engine)
        (Repro_sim.Engine.executed traced.engine);
      Alcotest.(check (option verdict)) (name ^ " verdict") v0 v1;
      Alcotest.(check bool) (name ^ " spans recorded") true (Spans.count sp > 0);
      List.iter
        (fun (label, (s : Spans.stat)) ->
          Alcotest.(check bool)
            (label ^ " self within total") true
            (s.self_ns >= 0 && s.self_ns <= s.total_ns))
        (Spans.stats sp))
    w.algorithms

(* Every run is gated: the naive baseline's wrong view fails the run and
   all its updates count as failed. *)
let gate_catches_wrong_view () =
  let inputs = inputs () in
  let w = Option.get (Workload.find "backlog") in
  let r = Bench.run_one ~seed:3L w inputs "naive" in
  Alcotest.(check bool) "gate failed" true (r.failures <> []);
  Alcotest.(check (pair int int))
    "all updates failed" (small.updates, small.updates) (Bench.tally [ r ])

let local_reads = (Option.get (Workload.find "local-reads")).algorithms

let () =
  Alcotest.run "perfbench"
    [ ( "wiring",
        [ Alcotest.test_case "matches run_scripted, aux off" `Quick
            (matches_scripted Aux_store.Off Bench.breakdown_algorithms);
          Alcotest.test_case "matches run_scripted, aux full" `Quick
            (matches_scripted Aux_store.Full local_reads) ] );
      ( "traced",
        List.map
          (fun (w : Workload.t) ->
            Alcotest.test_case (w.name ^ " traced = untraced") `Quick
              (traced_is_untraced w))
          Workload.all );
      ("gate", [ Alcotest.test_case "catches a wrong view" `Quick gate_catches_wrong_view ]) ]
