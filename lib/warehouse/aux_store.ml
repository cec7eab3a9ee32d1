open Repro_relational
module Snap = Repro_durability.Snap

type mode = Off | Keys_only | Full

let mode_to_string = function
  | Off -> "off"
  | Keys_only -> "keys-only"
  | Full -> "full"

let mode_of_string s =
  match String.lowercase_ascii (String.trim s) with
  | "off" -> Some Off
  | "keys" | "keys-only" -> Some Keys_only
  | "full" -> Some Full
  | _ -> None

(* A per-column hash index over a source's projection: join value ->
   (projected tuple -> multiplicity). Same shape as Base_table's source
   indexes, maintained alongside [projs] so a local answer probes
   instead of copying and hashing the whole projection per leg. *)
type index = (Value.t, (Tuple.t, int) Hashtbl.t) Hashtbl.t

type t = {
  mode : mode;
  strategy : Join_strategy.t;
  view : View_def.t option;
  tracked : int array array;
  (* required ⊆ tracked, per source: the leg against that source can be
     answered from the projection alone. *)
  answerable : bool array;
  widths : int array;
  projs : Bag.t array;
  genesis : Bag.t array;
  (* per source: (local join column, its position in [tracked], index) —
     derived from [projs], maintained by [apply], rebuilt by
     [restore]/[reset]. Join columns are always tracked (both modes), so
     every probe an answerable leg issues hits an index. *)
  indexes : (int * int * index) list array;
}

let off () =
  { mode = Off; strategy = Join_strategy.default; view = None; tracked = [||];
    answerable = [||]; widths = [||]; projs = [||]; genesis = [||];
    indexes = [||] }

let index_add (idx : index) pt pos count =
  let v = Tuple.get pt pos in
  let bucket =
    match Hashtbl.find_opt idx v with
    | Some b -> b
    | None ->
        let b = Hashtbl.create 4 in
        Hashtbl.replace idx v b;
        b
  in
  let c = Option.value ~default:0 (Hashtbl.find_opt bucket pt) + count in
  if c = 0 then begin
    Hashtbl.remove bucket pt;
    if Hashtbl.length bucket = 0 then Hashtbl.remove idx v
  end
  else Hashtbl.replace bucket pt c

(* Local columns of source [j] among a list of global attribute
   indices. *)
let localize view j globals =
  let ofs = View_def.offset view j and w = View_def.width view j in
  List.filter_map
    (fun g -> if g >= ofs && g < ofs + w then Some (g - ofs) else None)
    globals

(* Global attributes a leg's result can depend on: every join equality
   column (join keys), every join residual's attributes (Algebra.join
   evaluates residuals against both operands of the combined range),
   the selection's attributes and the projected attributes (both applied
   to the full-width tuple at the end of the sweep). *)
let referenced view =
  let acc = ref [] in
  let add g = acc := g :: !acc in
  Array.iter
    (fun (js : Join_spec.t) ->
      List.iter
        (fun (l, r) ->
          add l;
          add r)
        js.Join_spec.equalities;
      match js.Join_spec.residual with
      | Some p -> List.iter add (Predicate.attrs_used p)
      | None -> ())
    (View_def.joins view);
  List.iter add (Predicate.attrs_used (View_def.selection view));
  Array.iter add (View_def.projection view);
  !acc

let join_columns view =
  let acc = ref [] in
  Array.iter
    (fun (js : Join_spec.t) ->
      List.iter
        (fun (l, r) ->
          acc := l :: r :: !acc)
        js.Join_spec.equalities)
    (View_def.joins view);
  !acc

let project_relation rel cols =
  let b = Bag.create () in
  Relation.iter (fun tup c -> Bag.add b (Tuple.project tup cols) c) rel;
  b

let rebuild_index t j =
  List.iter
    (fun (_, pos, idx) ->
      Hashtbl.reset idx;
      Bag.iter (fun pt c -> index_add idx pt pos c) t.projs.(j))
    t.indexes.(j)

let create ~view ~mode ?(strategy = Join_strategy.default) ~initial () =
  match mode with
  | Off -> off ()
  | _ ->
      let n = View_def.n_sources view in
      if Array.length initial <> n then
        invalid_arg
          (Printf.sprintf "Aux_store.create: %d initial relations for %d sources"
             (Array.length initial) n);
      let refd = referenced view and jcols = join_columns view in
      let required = Array.init n (fun j -> localize view j refd) in
      let tracked =
        Array.init n (fun j ->
            let keys = Schema.key_indices (View_def.schema view j) in
            let wanted =
              match mode with
              | Off -> assert false
              | Keys_only -> keys @ localize view j jcols
              | Full -> keys @ required.(j)
            in
            Array.of_list (List.sort_uniq compare wanted))
      in
      let answerable =
        Array.init n (fun j ->
            List.for_all
              (fun c -> Array.exists (fun c' -> c' = c) tracked.(j))
              required.(j))
      in
      let widths = Array.init n (View_def.width view) in
      let indexes =
        Array.init n (fun j ->
            List.filter_map
              (fun col ->
                let pos = ref (-1) in
                Array.iteri
                  (fun k c -> if c = col then pos := k)
                  tracked.(j);
                if !pos < 0 then None
                else Some (col, !pos, (Hashtbl.create 64 : index)))
              (List.sort_uniq compare (localize view j jcols)))
      in
      let t =
        { mode; strategy; view = Some view; tracked; answerable; widths;
          projs =
            Array.init n (fun j -> project_relation initial.(j) tracked.(j));
          genesis =
            Array.init n (fun j -> project_relation initial.(j) tracked.(j));
          indexes }
      in
      for j = 0 to n - 1 do
        rebuild_index t j
      done;
      t

let mode t = t.mode
let strategy t = t.strategy
let tracked t j = if t.mode = Off then [||] else t.tracked.(j)
let answers t j = t.mode <> Off && t.answerable.(j)

let apply t ~source delta =
  if t.mode <> Off then
    Delta.iter
      (fun tup c ->
        let pt = Tuple.project tup t.tracked.(source) in
        Bag.add t.projs.(source) pt c;
        List.iter
          (fun (_, pos, idx) -> index_add idx pt pos c)
          t.indexes.(source))
      delta

(* Lift a projected tuple back to source width: tracked columns carry
   their values, untracked columns become Null placeholders. Safe
   because answerability guarantees no join key, residual, selection or
   projection attribute is untracked — a Null is never consulted and
   never survives the final projection. *)
let lift_one t j pt =
  let full = Array.make t.widths.(j) Value.Null in
  Array.iteri (fun k col -> full.(col) <- pt.(k)) t.tracked.(j);
  full

let lift t j proj =
  let lifted = Delta.empty () in
  Bag.iter (fun pt c -> Bag.add lifted (lift_one t j pt) c) proj;
  lifted

(* The original execution: copy the whole projection, merge the overlay,
   lift, hash-join — O(|projection|) allocation per leg. Kept as the
   Pairwise strategy and the fallback for cross-product junctions. *)
let pairwise_answer t view j ~partial ~overlay =
  let proj = Bag.copy t.projs.(j) in
  Delta.iter
    (fun tup c -> Bag.add proj (Tuple.project tup t.tracked.(j)) c)
    overlay;
  let pj = { Partial.lo = j; hi = j; data = lift t j proj } in
  if j < partial.Partial.lo then Algebra.join view pj partial
  else Algebra.join view partial pj

(* Serve one probe from the projection index plus the (delta-sized)
   overlay, lifting only the matching rows. Counts from the two sides
   accumulate in the caller's result delta exactly as the merged-bag
   path would (cancellations included). *)
let indexed_probe t j ~overlay ~col ~value =
  let rows =
    match List.find_opt (fun (c, _, _) -> c = col) t.indexes.(j) with
    | Some (_, _, idx) -> (
        match Hashtbl.find_opt idx value with
        | None -> []
        | Some bucket ->
            Hashtbl.fold (fun pt c acc -> (lift_one t j pt, c) :: acc) bucket [])
    | None ->
        (* every column an answerable leg probes is a join column, and
           join columns are tracked and indexed in every mode *)
        invalid_arg
          (Printf.sprintf "Aux_store: probe on unindexed column %d of source %d"
             col j)
  in
  let acc = ref rows in
  Delta.iter
    (fun tup c ->
      if Tuple.get tup col = value then
        acc := (lift_one t j (Tuple.project tup t.tracked.(j)), c) :: !acc)
    overlay;
  !acc

let local_answer t ~target ~partial ~overlay =
  if not (answers t target) then None
  else begin
    let view = Option.get t.view in
    let j = target in
    match t.strategy with
    | Join_strategy.Pairwise -> Some (pairwise_answer t view j ~partial ~overlay)
    | Join_strategy.Probe -> (
        match
          Algebra.extend_with_probe view partial ~source:j
            ~probe:(indexed_probe t j ~overlay)
        with
        | Some answer -> Some answer
        | None -> Some (pairwise_answer t view j ~partial ~overlay))
  end

let snapshot t =
  match t.mode with
  | Off -> Snap.Unit
  | _ ->
      Snap.List
        (Array.to_list (Array.map (fun b -> Snap.Delta (Bag.copy b)) t.projs))

let restore t s =
  if t.mode <> Off then begin
    let parts = Snap.to_list s in
    if List.length parts <> Array.length t.projs then
      invalid_arg "Aux_store.restore: source count mismatch";
    List.iteri
      (fun j p ->
        t.projs.(j) <- Bag.copy (Snap.to_delta p);
        rebuild_index t j)
      parts
  end

let reset t =
  Array.iteri
    (fun j g ->
      t.projs.(j) <- Bag.copy g;
      rebuild_index t j)
    t.genesis

let bytes t = String.length (Snap.encode (snapshot t))
