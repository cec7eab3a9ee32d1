(** Post-hoc verification of the consistency level a run achieved
    (paper §2's hierarchy: complete ⊃ strong ⊃ convergence).

    The warehouse serializes source updates in delivery order (paper §5).
    {!check} is a single pass: it replays that serialization install by
    install over its own copies of the sources, whose per-column indexes
    the replayed join legs probe, and grades every level below side by
    side on that one replay. The final view is checked against one
    from-scratch [Algebra.eval], independent of the probed replay.

    - {b Complete}: the installs partition the delivery log into
      contiguous runs, in delivery order, each matching the expected
      prefix state exactly — every warehouse state is a source state and
      no update is reflected early or late. One install per update
      (SWEEP) is the all-runs-of-length-1 case; a batched install
      (Sweep_batched) qualifies iff it covers exactly the next pending
      deliveries.
    - {b Strong}: installs may batch several updates {e skipping over
      other sources' deliveries}, as long as each batch keeps every
      source's updates in order (cumulative sets are per-source
      prefixes — sources are autonomous, so any interleaving respecting
      per-source order is a legal serialization) and the resulting content
      matches the corresponding database state.
    - {b Convergent}: intermediate installs stray from every legal state,
      but the final view is correct once the run drains.
    - {b Degraded}: the run ended with circuit breakers still open
      (source outage outlasting the run), so parked updates were never
      incorporated — accepted only when [check ~degraded:true] and the
      install history is order-preserving and exact over the
      {e incorporated subset}: the view is honest about what it
      reflects, it just is not done.
    - {b Inconsistent}: the final view is wrong (or was driven negative).

    Commercial systems of the era ensured only convergence (paper §2 cites
    Red Brick); SWEEP must test as Complete, Nested SWEEP and Strobe as
    Strong — the test suite asserts exactly that on randomized runs. *)

open Repro_relational
open Repro_protocol

type verdict = Complete | Strong | Convergent | Degraded | Inconsistent

val verdict_to_string : verdict -> string
val pp_verdict : Format.formatter -> verdict -> unit

(** Verdict ordering: [Complete] strongest. *)
val compare_verdict : verdict -> verdict -> int

type observation = {
  initial_sources : Relation.t array;  (** source contents before any update *)
  deliveries : Message.update list;  (** warehouse delivery order *)
  installs : (Message.txn_id list * Bag.t) list;
      (** per install: incorporated txns and view snapshot *)
  final_view : Bag.t;
}

type result = {
  verdict : verdict;
  detail : string;  (** human explanation of the strongest failed level *)
  states_checked : int;
}

(** [degraded] (default false): the run ended with breakers open —
    accept an exact-over-the-incorporated-subset history as
    {!Degraded} instead of grading it {!Inconsistent}. *)
val check : ?degraded:bool -> View_def.t -> observation -> result

(** [expected_states view ~initial ~deliveries] — the ground-truth view
    after each delivery prefix (element 0 = initial view), computed by
    the same indexed replay {!check} uses. Exposed for tests and for the
    Figure 5 walkthrough. *)
val expected_states :
  View_def.t -> initial:Relation.t array -> deliveries:Message.update list ->
  Bag.t array

(** {2 Session guarantees over the read path}

    The serving tier ({!Repro_serving.Server}) answers reads from the
    materialized view while maintenance may be lagging. Two classic
    session guarantees are graded post-hoc from the read log:

    - {b monotonic reads}: within one session, the view version observed
      never goes backwards (a later read never sees an older view);
    - {b read-your-writes}: a read issued by session [s] (sessions are
      pinned to source sites) reflects every update of source [s] the
      warehouse had {e acknowledged} — delivered into its queue — by the
      time the read was issued.

    Stale serving can violate read-your-writes by design (that is what
    the staleness stamp is for); the checker measures how often, it does
    not forbid it. *)

(** One served (not shed) read, in serve order. *)
type read_view = {
  session : int;  (** client session; pinned to a source id for RYW *)
  issued_at : float;
  version : int;  (** warehouse install count observed at serve time *)
  incorporated : int array;
      (** per-source count of updates reflected in the served view *)
  acked : int array;
      (** per-source count of updates the warehouse had acknowledged
          when the read was issued *)
}

type session_report = {
  reads_graded : int;
  monotonic_reads : bool;
  mr_violations : int;
  read_your_writes : bool;
  ryw_violations : int;
}

(** [check_sessions ~n_sources reads] grades the read log (serve
    order). An empty log trivially satisfies both guarantees. *)
val check_sessions : n_sources:int -> read_view list -> session_report

val pp_session_report : Format.formatter -> session_report -> unit
