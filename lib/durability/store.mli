(** The warehouse's durable state: one WAL plus the latest checkpoint.

    The node logs every delivered message and every install through
    {!log}; the experiment harness installs a {!set_capture} callback
    that freezes the full recoverable state ({!Checkpoint.t}) and calls
    {!maybe_checkpoint} at consistent points (after a delivery has been
    fully processed). A checkpoint is taken every [checkpoint_every] WAL
    records — record-count triggered, not timer triggered, so an idle
    warehouse schedules no events and fault-free engines still drain.

    Checkpoints are encoded as soon as they are captured (the captured
    record aliases the live view, see {!Repro_warehouse.Node.checkpoint}),
    into one buffer reused across checkpoints. Each checkpoint writes its
    state ({!Checkpoint.encode}: everything but the view). The view is
    written as an {e image} ({!Codec.put_bag}) only at the first
    checkpoint and whenever the weight of the install deltas logged
    since the latest image has reached the view's distinct-tuple count
    (or 16, for a smaller view). {!recovery} rebuilds the view from that image plus
    the [Wal.Installed] deltas between the image and the checkpoint, so
    checkpoint bytes track the change, not |V|, and recovery folds at
    most about one view's worth of deltas. *)

type t

(** [checkpoint_every = 0] disables checkpointing (recovery then replays
    the whole WAL). Default 8. *)
val create : ?checkpoint_every:int -> unit -> t

val set_capture : t -> (unit -> Checkpoint.t) -> unit

(** Append one record (does not checkpoint; call {!maybe_checkpoint} at
    the next consistent point). *)
val log : t -> Wal.record -> unit

(** Take a checkpoint if [checkpoint_every] records have been logged
    since the last one. *)
val maybe_checkpoint : t -> unit

(** Unconditional checkpoint. Raises if no capture function is set. *)
val checkpoint_now : t -> unit

(** What recovery restarts from: the latest checkpoint, its view rebuilt
    from the latest image plus the logged installs up to the
    checkpoint's [wal_pos], and the WAL records after that position —
    [(None, whole log)] when no checkpoint exists. The WAL is decoded
    once, from the image's position. Every call decodes a fresh copy, so
    recovered state never aliases the live structures it was captured
    from. *)
val recovery : t -> Checkpoint.t option * Wal.record list

(** The latest image's and state's bytes as written, if any. *)
val durable_bytes : t -> (string * string) option

val wal_length : t -> int
val wal_bytes : t -> int
val checkpoints : t -> int

(** Total encoded bytes across all checkpoints taken, images included. *)
val checkpoint_bytes : t -> int
