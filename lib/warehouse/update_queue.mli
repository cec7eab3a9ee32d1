(** The warehouse's UpdateMessageQueue (paper Fig. 4).

    Updates are appended in delivery order by the [LogUpdates] process and
    consumed by the maintenance algorithm. Because channels are FIFO, an
    entry from source [j] still in this queue when an answer from [j]
    arrives is *exactly* an interfering update (paper §4, footnote 2).

    The queue keeps that interference state incrementally, per source:
    an O(1) count of queued entries ({!count_from}) and, on demand, hash
    indexes over the net sum of their deltas ({!interference}). A
    correction probes an index for the rows matching its TempView
    instead of re-summing the backlog. Every mutation below keeps both
    in step, and a source whose count returns to 0 drops its indexes, so
    the memory follows the in-flight work. Both are derived from the
    entries and never checkpointed; {!of_entries} recounts, and the
    indexes are rebuilt on the next probe. *)

open Repro_relational
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
    so they remain counted and indexed as interference. *)
val take_eligible : t -> max:int -> eligible:(entry -> bool) -> entry list

val peek : t -> entry option
val is_empty : t -> bool
val length : t -> int

(** Number of queued entries from source [j]. O(1). *)
val count_from : t -> int -> int

(** [interference t j ~col] is a hash index on column [col] of the net
    sum ΔR_j of every queued delta from source [j] — [None] when none is
    queued. The first call for [(j, col)] builds it from [j]'s entries;
    later mutations keep it exact until [j]'s count returns to 0. The
    index is owned by the queue: read it, never mutate it. *)
val interference : t -> int -> col:int -> Col_index.t option

(** Columns of source [j] with a live interference index. Empty once
    [j] has nothing queued. *)
val indexed_columns : t -> int -> int list

(** [correct t view ~source:j ~extras ~answer ~temp] is the on-line
    error correction of paper §4, [answer − ΔR_j ⋈ temp], where ΔR_j is
    the net sum of [extras] and of every update from [j] still queued.
    Each TempView tuple probes {!interference} and scans [extras] (a
    batch's own D_j, later in-flight batches' updates), so the cost
    follows |temp| and its matches, not the backlog. A cross-product
    junction, with no column to probe, sums ΔR_j and hash-joins
    ({!Algebra.compensate}). *)
val correct :
  t -> View_def.t -> source:int -> extras:Delta.t list -> answer:Partial.t ->
  temp:Partial.t -> Partial.t

(** [interference_empty t view ~source:j ~extras ~temp] holds when that
    ΔR_j nets to empty — a batch's "nothing to correct" — tested against
    the index {!correct} probes for [temp], without re-summing the
    queue. *)
val interference_empty :
  t -> View_def.t -> source:int -> extras:Delta.t list -> temp:Partial.t ->
  bool

(** Remove and return all entries from source [j], oldest first — Nested
    SWEEP's absorption of concurrent updates. *)
val take_from_source : t -> int -> entry list

(** All entries, oldest first. *)
val entries : t -> entry list

(** Delivery sequence number of the most recently appended entry
    ([-1] before any). *)
val last_arrival : t -> int
