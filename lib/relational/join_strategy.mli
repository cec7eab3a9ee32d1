(** How a delta join leg is executed against a base relation.

    Every sweep leg joins a (small) partial ΔV with a (large) base
    relation. Two interchangeable executions — all bag-identical, only
    the work per leg differs:

    - [Pairwise] — the original generic hash join: build an ad-hoc hash
      table over one operand per leg ({!Algebra.extend}). O(|R|) per leg
      even for a one-tuple delta.
    - [Probe] — probe the persistent per-column hash index the base
      table maintains incrementally ({!Algebra.extend_with_probe} over
      [Base_table.probe]). O(|ΔV| · matches) per leg. The default.

    Legs whose join shape a strategy cannot serve (a cross-product
    junction with no equality) fall back to [Pairwise] — the per-table
    {!Base_table.scan_count} counter tracks the probes that degraded. *)

type t = Pairwise | Probe

(** [Probe] — indexed deltas are the default execution. *)
val default : t

val all : t list
val to_string : t -> string

(** Parses ["pairwise"|"scan"|"hash"] and ["probe"|"index"|"indexed"]. *)
val of_string : string -> t option

val pp : Format.formatter -> t -> unit
