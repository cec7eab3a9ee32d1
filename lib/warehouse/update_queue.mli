(** The warehouse's UpdateMessageQueue (paper Fig. 4).

    Updates are appended in delivery order by the [LogUpdates] process and
    consumed by the maintenance algorithm. Because channels are FIFO, an
    entry from source [j] still in this queue when an answer from [j]
    arrives is *exactly* an interfering update (paper §4, footnote 2) —
    membership is the interference test every algorithm here uses. *)

open Repro_protocol

type entry = {
  update : Message.update;
  arrival : int;  (** warehouse delivery sequence number *)
  arrived_at : float;
}

type t

(** [capacity] bounds the queue length; admission control (the harness's
    backpressure layer) must defer or shed before delivery, so an
    over-capacity {!append} is a wiring bug and raises. Unbounded when
    omitted. *)
val create : ?capacity:int -> unit -> t

val capacity : t -> int option

(** Append in delivery order; returns the new entry. Raises
    [Invalid_argument] when the queue is at capacity. *)
val append : t -> Message.update -> arrived_at:float -> entry

(** Rebuild a queue from checkpointed entries (crash recovery),
    preserving original arrival numbers. *)
val of_entries : ?capacity:int -> entry list -> next_arrival:int -> t

(** Oldest entry, removed / not removed. *)
val pop : t -> entry option

(** Return an entry to the head (degraded-mode abort: the next {!pop}
    re-yields it, arrival number intact). Raises at capacity. *)
val push_front : t -> entry -> unit

(** [take t ~max] removes and returns up to [max] oldest entries, oldest
    first — the sweep engine's batch drain. Raises [Invalid_argument]
    when [max] is negative. *)
val take : t -> max:int -> entry list

(** Removes and returns up to [max] entries satisfying [eligible],
    oldest first; ineligible (parked) entries stay in place, in order —
    so they remain visible to {!from_source} interference tests. *)
val take_eligible : t -> max:int -> eligible:(entry -> bool) -> entry list

val peek : t -> entry option
val is_empty : t -> bool
val length : t -> int

(** Entries from source [j], oldest first (left in place). *)
val from_source : t -> int -> entry list

(** Remove and return all entries from source [j], oldest first — Nested
    SWEEP's absorption of concurrent updates. *)
val take_from_source : t -> int -> entry list

(** All entries, oldest first. *)
val entries : t -> entry list

(** Delivery sequence number of the most recently appended entry
    ([-1] before any). *)
val last_arrival : t -> int
