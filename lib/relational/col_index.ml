type t = {
  col : int;
  buckets : (Value.t, Bag.t) Hashtbl.t;
  mutable size : int;  (* distinct tuples over all buckets *)
}

let create ?(initial_size = 64) col =
  { col; buckets = Hashtbl.create initial_size; size = 0 }

let col t = t.col

let rec find idxs col =
  match idxs with
  | [] -> None
  | t :: rest -> if t.col = col then Some t else find rest col

let add t tup n =
  if n <> 0 then begin
    let v = Tuple.get tup t.col in
    match Hashtbl.find_opt t.buckets v with
    | Some bucket ->
        let before = Bag.cardinal bucket in
        Bag.add bucket tup n;
        let after = Bag.cardinal bucket in
        t.size <- t.size + after - before;
        if after = 0 then Hashtbl.remove t.buckets v
    | None ->
        let bucket = Bag.create ~initial_size:4 () in
        Bag.add bucket tup n;
        Hashtbl.replace t.buckets v bucket;
        t.size <- t.size + 1
  end

let add_bag t b = Bag.iter (add t) b
let remove_bag t b = Bag.iter (fun tup n -> add t tup (-n)) b

let fold_probe f t v init =
  match Hashtbl.find_opt t.buckets v with
  | None -> init
  | Some bucket -> Bag.fold f bucket init

let probe t v = fold_probe (fun tup c acc -> (tup, c) :: acc) t v []

let count t tup =
  match Hashtbl.find_opt t.buckets (Tuple.get tup t.col) with
  | None -> 0
  | Some bucket -> Bag.count bucket tup

let cardinal t = t.size

let clear t =
  Hashtbl.reset t.buckets;
  t.size <- 0
