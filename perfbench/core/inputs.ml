open Repro_relational
open Repro_sim
open Repro_workload
module Read_gen = Repro_serving.Read_gen

type t = {
  view : View_def.t;
  initial : Relation.t array;  (** pristine; every run copies it *)
  updates : (float * int * Delta.t) array;  (** time, source, delta *)
  reads : (float * int * Read_gen.kind) array;  (** time, session, kind *)
}

type spec = {
  sources : int;
  tuples : int;  (** per source, and the join domain of tables and stream *)
  mean_gap : float;  (** mean exponential gap between updates *)
  updates : int;
  reads : int;  (** read arrivals at the update rate; 0 for none *)
}

(* A source's live tuples, for uniform deletes: swap-remove keeps a
   delete O(1) where Update_gen's list filter is O(live). *)
type mirror = {
  mutable live : Tuple.t array;
  mutable n_live : int;
  mutable next_key : int;
}

let mirror rel =
  let live = Array.of_list (List.map fst (Relation.to_sorted_list rel)) in
  { live; n_live = Array.length live; next_key = Array.length live }

let push m tup =
  if m.n_live = Array.length m.live then
    m.live <-
      Array.append m.live (Array.make (max 16 m.n_live) tup);
  m.live.(m.n_live) <- tup;
  m.n_live <- m.n_live + 1

(* Update_gen.default's mix: 60% inserts of fresh keys with join
   attributes uniform over the domain, otherwise a uniform delete;
   sources uniform; one tuple per transaction. *)
let next_delta rng ~domain m =
  if m.n_live = 0 || Rng.bool rng 0.6 then begin
    let tup =
      Chain.tuple ~key:m.next_key ~a:(Rng.int rng domain)
        ~b:(Rng.int rng domain)
    in
    m.next_key <- m.next_key + 1;
    push m tup;
    Delta.insertion tup
  end
  else begin
    let i = Rng.int rng m.n_live in
    let victim = m.live.(i) in
    m.n_live <- m.n_live - 1;
    m.live.(i) <- m.live.(m.n_live);
    Delta.deletion victim
  end

(* Initial tables whose join columns are random permutations of the
   domain: every join value appears once per column, so each chain
   tuple starts with exactly one partner and the view's size does not
   swing with the seed. (Chain.populate draws the columns with
   replacement; at 500 tuples per source its 4-way join moved allocation
   and peak heap by 25% between seeds.) *)
let populate ~n ~tuples rng =
  let permutation () =
    let p = Array.init tuples Fun.id in
    for i = tuples - 1 downto 1 do
      let j = Rng.int rng (i + 1) in
      let x = p.(i) in
      p.(i) <- p.(j);
      p.(j) <- x
    done;
    p
  in
  Array.init n (fun _ ->
      let a = permutation () and b = permutation () in
      let rel = Relation.create ~initial_size:(tuples * 2) () in
      for key = 0 to tuples - 1 do
        Relation.insert rel (Chain.tuple ~key ~a:a.(key) ~b:b.(key)) 1
      done;
      rel)

let generate ~seed spec =
  let rng = Rng.create seed in
  let view = Chain.view ~n:spec.sources () in
  let domain = spec.tuples in
  let initial = populate ~n:spec.sources ~tuples:spec.tuples (Rng.split rng) in
  let mirrors = Array.map mirror initial in
  let urng = Rng.split rng in
  let clock = ref 0. in
  let updates =
    Array.init spec.updates (fun _ ->
        clock := !clock +. Rng.exponential urng ~mean:spec.mean_gap;
        let source = Rng.int urng spec.sources in
        (!clock, source, next_delta urng ~domain mirrors.(source)))
  in
  (* Read_gen.default's mix over the view's output arity: 70% point
     lookups, 30% whole-view aggregates. *)
  let rrng = Rng.split rng in
  let arity = Array.length (View_def.projection view) in
  let clock = ref 0. in
  let reads =
    Array.init spec.reads (fun _ ->
        clock := !clock +. Rng.exponential rrng ~mean:spec.mean_gap;
        let session = Rng.int rrng spec.sources in
        let kind =
          if Rng.bool rrng Read_gen.default.p_point then
            Read_gen.Point
              (Tuple.ints (List.init arity (fun _ -> Rng.int rrng domain)))
          else Read_gen.Aggregate
        in
        (!clock, session, kind))
  in
  { view; initial; updates; reads }
