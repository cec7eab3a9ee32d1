(** Key plumbing for the Strobe-family baselines.

    Strobe and C-strobe assume every base relation has a unique key and
    that the view projects all of them (paper §3); these helpers extract
    key values from source tuples, full-width join tuples and projected
    view tuples, and build the key-based deletions those algorithms apply
    locally. *)

open Repro_relational

(** Checks the Strobe applicability condition; raises [Invalid_argument]
    naming the algorithm when the view does not retain all keys. *)
val require_keys : algorithm:string -> View_def.t -> unit

(** Key values of a source-local tuple of source [j]. *)
val source_tuple_key : View_def.t -> int -> Tuple.t -> Tuple.t

(** Key values of source [j]'s slice inside a full-width join tuple. *)
val full_tuple_key : View_def.t -> int -> Tuple.t -> Tuple.t

(** Key values of source [j] inside a projected view tuple. *)
val view_tuple_key : View_def.t -> int -> Tuple.t -> Tuple.t

(** [kill_full view ~full ~source ~keys] removes from the full-width
    delta [full] every tuple whose [source]-slice key is in [keys]
    (in place). *)
val kill_full :
  View_def.t -> full:Delta.t -> source:int -> keys:(Tuple.t, unit) Hashtbl.t ->
  unit

(** {2 Key-delete overlays}

    Strobe's action list and C-strobe's update are applied to the view as
    one install: key-deletes remove every view tuple carrying a deleted
    source key, and inserts add tuples absent from the view (the keys
    make any present one a duplicate derivation). An {!overlay} builds
    that install delta on top of the live view without copying it: a
    tuple's count is the view's plus the delta's, and each key-delete
    probes an {!index} on the source's first view-key column instead of
    scanning the view. *)

(** Per-source hash indexes over the installed view, each built the first
    time a key-delete from that source needs it and advanced by every
    {!commit}. Derived state: never checkpointed; a restored algorithm
    starts a fresh one and rebuilds on first use. *)
type index

(** [index view] has no source indexed yet. The view must pass
    {!require_keys}. *)
val index : View_def.t -> index

(** A pending install delta over the installed view. *)
type overlay

(** [overlay idx ~contents ?base ()] starts an empty delta (a copy of
    [base] when given) over [contents], the installed view [idx]
    mirrors. *)
val overlay :
  index -> contents:Bag.t -> ?base:Delta.t -> unit -> overlay

(** [delete_key o ~source ~key] brings to 0 the count of every tuple
    whose [source]-key equals [key], in the view or inserted earlier in
    the overlay. *)
val delete_key : overlay -> source:int -> key:Tuple.t -> unit

(** [insert_once o tup] adds [tup] with count 1 when its count is 0,
    and does nothing otherwise. *)
val insert_once : overlay -> Tuple.t -> unit

(** The delta built so far (live; treat as read-only). *)
val delta : overlay -> Delta.t

(** [commit o] advances the index by the overlay's delta and returns the
    delta, which the caller must install at once. *)
val commit : overlay -> Delta.t
