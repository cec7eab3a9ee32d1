(** Executes a scenario under one maintenance algorithm and verifies the
    outcome.

    Wiring (paper Fig. 1): one FIFO channel from the warehouse to each
    source and one back. Update notices and query answers from a source
    share the same upstream channel — SWEEP's interference detection
    depends on that ordering. In the centralized topology a single
    {!Repro_source.Eca_site} stands in for all sources and every message
    is routed to it. The run drains completely (the update stream is
    finite), then the consistency checker classifies the install
    history. *)

open Repro_sim
open Repro_warehouse
open Repro_consistency

type result = {
  scenario : Scenario.t;
  algorithm : string;
  metrics : Metrics.t;
  verdict : Checker.result;
  sim_time : float;  (** sim time at drain *)
  wall_seconds : float;  (** host time the run took *)
  final_view_tuples : int;
  final_view : Repro_relational.Bag.t;
      (** final materialized view (copied) — lets tests compare runs,
          e.g. crash-recovery vs crash-free, for bit-identical results *)
  events : int;  (** simulator events executed *)
  completed : bool;
      (** false when the run was cut off by [max_events] — how the harness
          reports C-strobe's divergence without hanging *)
  degraded : bool;
      (** the run ended with at least one circuit breaker not closed
          (source outage outlasting the run): parked updates remain in
          the queue and the verdict was computed with
          [Checker.check ~degraded:true] *)
  reads : Repro_serving.Server.record list;
      (** the serving tier's read log in serve order (shed reads
          included); [] when [scenario.read_rate = 0] *)
  sessions : Checker.session_report option;
      (** session-guarantee grades (monotonic reads, read-your-writes)
          over the served reads; [None] without a serving tier *)
}

(** Outcome of a {!run_scripted} run, exposing everything needed for
    assertions and walkthroughs. *)
type scripted_outcome = {
  node : Node.t;
  view : Repro_relational.View_def.t;
  initial_sources : Repro_relational.Relation.t array;
  trace : Trace.t;
  engine : Engine.t;
}

(** [run_scripted ~algorithm ~view ~initial ~updates ()] runs an explicit
    update schedule [(time, source, delta), …] over the distributed
    topology with a fixed per-hop latency (default 1.0) — deterministic
    interleavings for tests, walkthroughs and figure regeneration. *)
val run_scripted :
  ?latency:float ->
  ?seed:int64 ->
  ?trace_enabled:bool ->
  ?obs:Repro_observability.Obs.t ->
  ?aux_mode:Repro_warehouse.Aux_store.mode ->
  ?join_strategy:Repro_relational.Join_strategy.t ->
  algorithm:(module Repro_warehouse.Algorithm.S) ->
  view:Repro_relational.View_def.t ->
  initial:Repro_relational.Relation.t array ->
  updates:(float * int * Repro_relational.Delta.t) list ->
  unit ->
  scripted_outcome

(** Consistency verdict for a scripted run. *)
val check_scripted : scripted_outcome -> Checker.result

(** [run scenario algorithm] executes to quiescence.
    [check] (default true) runs the consistency checker (it needs
    per-install snapshots; disable for very long runs).
    [trace] collects a simulation trace when provided.
    [obs] attaches structured observability (spans, histograms,
    transport events); its clock is bound to the engine's virtual time.
    Recording never consumes randomness or schedules events, so enabling
    it cannot perturb the simulation.
    [max_events] bounds the simulation; a run cut off by it has
    [completed = false] and skips the checker.
    [on_node] is called once with the warehouse node, after wiring and
    before the first event — the place to attach install listeners
    (they carry over across warehouse crash recovery). *)
val run :
  ?check:bool ->
  ?trace:Trace.t ->
  ?obs:Repro_observability.Obs.t ->
  ?max_events:int ->
  ?on_node:(Node.t -> unit) ->
  Scenario.t ->
  (module Algorithm.S) ->
  result

(** Every registered algorithm name, in registry order. *)
val algorithm_names : string list

(** The algorithms a scenario runs by default, in registry order: all
    but ["sweep-global"] (same as SWEEP without global transactions),
    and ["eca"] only in the centralized topology. *)
val algorithms_for : Scenario.t -> (string * (module Algorithm.S)) list

(** Look a registered algorithm up by name (any of {!algorithm_names}).
    [batch_max] (default 16) parameterizes ["sweep-batched"] only. *)
val algorithm_by_name : ?batch_max:int -> string -> (module Algorithm.S) option

val pp_result : Format.formatter -> result -> unit
