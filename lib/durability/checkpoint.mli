(** Periodic snapshots of the whole recoverable warehouse state.

    A checkpoint bounds the WAL tail that has to be replayed after a
    crash. It captures, at a consistent point (between message
    deliveries):

    - the materialized view contents;
    - the pending-update queue, with original arrival numbers and
      timestamps (algorithms compare arrival numbers, and staleness is
      measured from the original arrival time);
    - the query-id counter and the algorithm's resumable state as a
      {!Snap} tree;
    - transport state: each warehouse-side receiver's next expected
      sequence number and each warehouse-side sender's [next_seq] /
      cumulative-ack / unacknowledged window. Restoring the sender
      counter makes replay regenerate in-flight queries with their
      {e original} sequence numbers, so the sources' receivers suppress
      them as duplicates — exactly-once even though recovery resends;
    - the WAL position [wal_pos] the checkpoint covers: recovery replays
      only records [wal_pos..].

    Checkpoints round-trip through {!encode}/{!decode} every time one is
    taken, so serializability is exercised on every run that crashes.

    The view is written in its canonical [Tuple.compare] order. A node
    with a store keeps that order incrementally in an {!Order.t}: each
    capture sorts only the tuples installs touched since the previous
    one and splices them in, instead of sorting the whole view. The
    bytes are identical to {!Codec.put_bag}'s, which sorts from
    scratch. *)

open Repro_relational

(** One warehouse→source transport sender, frozen. *)
type sender_state = {
  next_seq : int;
  acked_upto : int;
  window : (int * Repro_protocol.Message.to_source) list;
      (** unacked (seq, payload), oldest first *)
}

type queued = {
  update : Repro_protocol.Message.update;
  arrival : int;
  arrived_at : float;
}

(** The canonical order of a bag (its view), maintained across captures. *)
module Order : sig
  type t

  (** No order yet: the first {!refresh} sorts the whole bag. *)
  val create : unit -> t

  (** [touch o delta] notes the tuples an install of [delta] changes.
      Every change to the bag between two refreshes must be touched. *)
  val touch : t -> Delta.t -> unit

  (** [refresh o bag] brings the order up to date with [bag]: it sorts
      only the touched tuples and splices them in by binary search
      (the whole bag only on the first call, or after more touches than
      the bag has tuples). *)
  val refresh : t -> Bag.t -> unit
end

type t = {
  taken_at : float;  (** sim time the checkpoint was taken *)
  wal_pos : int;  (** WAL records covered by this checkpoint *)
  view : Bag.t;
  view_order : Order.t option;
      (** [view]'s canonical order, refreshed at capture: {!put} writes
          the view from it. [None] (as {!decode} returns) sorts [view]
          through {!Codec.put_bag}; the bytes are the same. *)
  queue : queued list;
  queue_next_arrival : int;
  next_qid : int;
  algo : Snap.t;
  recv_expected : int array;  (** per up-link receiver state *)
  senders : sender_state array;  (** per down-link sender state *)
  breaker : Snap.t;
      (** per-source circuit-breaker state ([Snap.Unit] when the run has
          no breaker) *)
  aux : Snap.t;
      (** self-maintenance aux-store projections ([Snap.Unit] when the
          run has no aux store) *)
}

val put : Buffer.t -> t -> unit
val get : Codec.reader -> t
val encode : t -> string
val decode : string -> t
