(** The invariant rules (see DESIGN.md §11 and §16):

    - L1 determinism: no ambient [Random.*] outside [lib/sim/rng.ml], no
      wall-clock reads ([Unix.gettimeofday]/[Unix.time]/[Sys.time]), no
      randomized hashing ([Hashtbl.create ~random:true],
      [Hashtbl.hash_param], [Hashtbl.randomize]).
    - L2 iteration order: [Hashtbl.iter]/[Hashtbl.fold] results must not
      reach Snap/Codec/Checkpoint/Jsonw encodings without a [List.sort].
    - L3 quadratic patterns: [l @ [x]] stored into a mutable cell
      (error), [List.length] comparisons inside recursive/loop contexts
      (warning).
    - L4 exception hygiene: catch-all [try ... with _ ->] swallows
      (error), bare [raise Not_found]/[raise Exit] in modules with an
      exported [.mli] (error).
    - L5 snapshot completeness: in units defining [snapshot]+[restore],
      every mutable record field must be referenced in the call closure
      of both.
    - L6 probe-less joins: bare [Algebra.extend] in [lib/warehouse/]
      bypasses the persistent indexes (error).
    - L7 toplevel mutable state (cross-module): any module-init mutable
      value in [lib/] — found through the Modgraph mutability fixpoint,
      so repo-local constructors count — is domain-shared state (error).
    - L8 hot-path effects (cross-module): direct I/O or wall-clock reads
      reachable from a maintenance handler
      ([on_update]/[on_answer]/[on_source_down]/[on_source_up]) outside
      [lib/observability/] (error).
    - L9 send-aliasing: mutating a structure after sending it in the
      same function violates copy-on-send (error). *)

type ctx = { file : string; has_mli : bool; graph : Modgraph.t }

(** Each rule by id, individually runnable (fixture tests pin each one). *)
val all : (string * (ctx -> Parsetree.structure -> Finding.t list)) list

(** (id, slug, one-line description) for every rule — feeds the SARIF
    rule table and the per-rule report stats. *)
val meta : (string * string * string) list

(** Run every rule; findings in rule order, locations sorted per rule. *)
val run : ctx -> Parsetree.structure -> Finding.t list
