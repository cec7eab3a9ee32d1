(** Admission control for a bounded warehouse update queue.

    The warehouse's {!Repro_warehouse.Update_queue} can be given a hard
    capacity; something must then keep the number of updates {e in
    flight} — sent but not yet incorporated into the view — at or below
    it. Holding updates back at the {e receiver} would either break the
    FIFO interference test (paper §4 footnote 2 relies on per-source
    delivery order) or deadlock the transport, so backpressure is applied
    where updates are {e born}, at the workload layer: each admitted
    update takes a token; an update finding no token free waits in a
    per-source FIFO (preserving per-source order); tokens return when the
    warehouse reports updates incorporated
    ({!Repro_warehouse.Node.add_install_txns_listener}).

    An update with an {e empty} delta that would have to wait is shed
    instead: it changes no source state and no expected view state, so
    dropping it under load costs nothing. *)

type t

val create : n_sources:int -> capacity:int -> t

(** [submit t ~source ~noop run] — run now (taking a token), queue behind
    this source's earlier waiters, or shed (only when [noop]). *)
val submit : t -> source:int -> noop:bool -> (unit -> unit) -> unit

(** Return [n] tokens and admit waiting updates, round-robin across
    sources from a persistent cursor (deterministic, starvation-free). *)
val release : t -> int -> unit

(** Updates that had to wait at least once. *)
val deferred : t -> int

(** No-op updates dropped at capacity. *)
val shed : t -> int

(** Updates currently waiting. *)
val waiting_count : t -> int
