(** A hash index on one column of a counted multiset of tuples.

    Each distinct value of the column maps to a bucket holding the tuples
    with that value and their signed multiplicities. Empty buckets are
    dropped, so the index never outgrows the multiset it mirrors. Source
    tables, the aux store's projections, the checker's replicas and the
    warehouse's queued-interference sums all keep their join columns in
    one of these. *)

type t

(** [create ?initial_size col] is an empty index on tuple position
    [col]. *)
val create : ?initial_size:int -> int -> t

(** The tuple position this index is keyed on. *)
val col : t -> int

(** [find idxs col] is the index on [col] among [idxs], if any. *)
val find : t list -> int -> t option

(** [add t tup n] adds [n] (possibly negative) to the multiplicity of
    [tup]; a tuple whose count reaches 0 leaves its bucket, and a bucket
    left empty leaves the index. *)
val add : t -> Tuple.t -> int -> unit

(** [add_bag t b] adds every entry of [b]. *)
val add_bag : t -> Bag.t -> unit

(** [remove_bag t b] subtracts every entry of [b]. *)
val remove_bag : t -> Bag.t -> unit

(** [probe t v] lists the tuples whose column equals [v], with their
    multiplicities. *)
val probe : t -> Value.t -> (Tuple.t * int) list

(** [fold_probe f t v init] folds [f] over the tuples {!probe} lists,
    without building the list. *)
val fold_probe : (Tuple.t -> int -> 'a -> 'a) -> t -> Value.t -> 'a -> 'a

(** Multiplicity of one tuple (0 when absent). *)
val count : t -> Tuple.t -> int

(** Number of distinct tuples held. *)
val cardinal : t -> int

(** Empty the index, keeping its column. *)
val clear : t -> unit
