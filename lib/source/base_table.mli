(** A base relation plus its local transaction log.

    Updates are applied atomically and sequence-numbered; the log is the
    per-source ground truth the consistency checker replays. *)

open Repro_relational
open Repro_protocol

type t

(** [create ~source ?indexes ?view rel] — [indexes] lists local columns
    to keep persistent hash indexes on; [view] additionally derives this
    source's join columns from the chain's join conditions
    ({!join_columns}) so every delta join leg can probe by default.
    Indexes are maintained incrementally by {!apply} and served by
    {!probe}. *)
val create : source:int -> ?indexes:int list -> ?view:View_def.t ->
  Relation.t -> t

val source : t -> int

(** The local columns of source [id] named by [view]'s join equalities —
    the columns {!create} auto-indexes when given [?view]. *)
val join_columns : View_def.t -> int -> int list

(** Columns with a live index. *)
val indexed_columns : t -> int list

(** [probe t ~col ~value] — all tuples whose [col] equals [value], with
    multiplicities. Served by the persistent index when [col] is
    indexed; otherwise degrades to an O(n) relation scan counted in
    {!scan_count} (the default-strategy suites assert that counter
    stays 0, so a regression to the scan path fails tests instead of
    silently costing 27×). *)
val probe : t -> col:int -> value:Value.t -> (Tuple.t * int) list

(** Probes on this table that found no index and degraded to a scan.
    Per table — no process-global state — so the harness sums the
    tables it created into [Metrics.unindexed_scans]. *)
val scan_count : t -> int

(** The live relation (mutated by {!apply}); treat as read-only. *)
val relation : t -> Relation.t

(** Atomically apply one update transaction (single update or
    source-local multi-update, paper §2) and log it. Raises
    [Invalid_argument] when a delete refers to absent tuples. *)
val apply : t -> Delta.t -> Message.txn_id

(** Applied transactions, oldest first. *)
val log : t -> (Message.txn_id * Delta.t) list

(** Number of transactions applied. *)
val applied : t -> int
