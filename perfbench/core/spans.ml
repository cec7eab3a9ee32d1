(* In-memory span log, one column per field so a traced drain of a few
   hundred thousand calls costs a few int arrays, not a record each.
   Spans nest strictly (the simulator is single-threaded and every
   wrapper closes what it opens), so the open span at [enter] is the
   parent. *)

type t = {
  ids : (string, int) Hashtbl.t;
  mutable labels : string array;  (* name id -> name *)
  mutable n : int;
  mutable name : int array;
  mutable parent : int array;
  mutable txn : int array;  (* [no_txn], or source lsl 32 lor seq *)
  mutable start : int array;  (* ns *)
  mutable stop : int array;  (* ns *)
  mutable top : int;  (* the open span, -1 at the root *)
}

let no_txn = -1

let create () =
  let cap = 1 lsl 12 in
  { ids = Hashtbl.create 32; labels = [||]; n = 0; name = Array.make cap 0;
    parent = Array.make cap 0; txn = Array.make cap 0;
    start = Array.make cap 0; stop = Array.make cap 0; top = -1 }

let intern t label =
  match Hashtbl.find_opt t.ids label with
  | Some id -> id
  | None ->
      let id = Array.length t.labels in
      Hashtbl.replace t.ids label id;
      t.labels <- Array.append t.labels [| label |];
      id

let grow t =
  let cap = 2 * Array.length t.name in
  let ext a =
    let b = Array.make cap 0 in
    Array.blit a 0 b 0 t.n;
    b
  in
  t.name <- ext t.name;
  t.parent <- ext t.parent;
  t.txn <- ext t.txn;
  t.start <- ext t.start;
  t.stop <- ext t.stop

let enter t name =
  if t.n = Array.length t.name then grow t;
  let i = t.n in
  t.n <- i + 1;
  t.name.(i) <- name;
  t.parent.(i) <- t.top;
  t.txn.(i) <- no_txn;
  t.top <- i;
  t.start.(i) <- Clock.now_ns ();
  i

let leave t i =
  t.stop.(i) <- Clock.now_ns ();
  t.top <- t.parent.(i)

let set_txn t i (id : Repro_protocol.Message.txn_id) =
  t.txn.(i) <- (id.source lsl 32) lor id.seq

let wrap t label f =
  let id = intern t label in
  fun x ->
    let s = enter t id in
    let r = f x in
    leave t s;
    r

let count t = t.n
let label t i = t.labels.(t.name.(i))

type stat = { calls : int; total_ns : int; self_ns : int }

(* Self time: a span's duration minus the durations of its direct
   children, which it fully encloses. *)
let stats t =
  let child = Array.make t.n 0 in
  for i = 0 to t.n - 1 do
    let p = t.parent.(i) in
    if p >= 0 then child.(p) <- child.(p) + (t.stop.(i) - t.start.(i))
  done;
  let k = Array.length t.labels in
  let calls = Array.make k 0 and total = Array.make k 0
  and self = Array.make k 0 in
  for i = 0 to t.n - 1 do
    let id = t.name.(i) and d = t.stop.(i) - t.start.(i) in
    calls.(id) <- calls.(id) + 1;
    total.(id) <- total.(id) + d;
    self.(id) <- self.(id) + d - child.(i)
  done;
  List.init k (fun id ->
      (t.labels.(id), { calls = calls.(id); total_ns = total.(id);
                        self_ns = self.(id) }))

(* Chrome Trace Event "complete" events for the first [limit] spans in
   enter order. A prefix by enter order is closed under parents, so the
   exported trees are whole down to where the cut falls. Timestamps are
   microseconds since [origin_ns]. *)
let chrome_events t ~tid ~origin_ns ~limit =
  let module J = Repro_observability.Jsonw in
  let us ns = float_of_int (ns - origin_ns) /. 1e3 in
  List.init (min limit t.n) (fun i ->
      let txn =
        if t.txn.(i) = no_txn then []
        else
          [ ("txn",
             J.str
               (Printf.sprintf "%d.%d" (t.txn.(i) lsr 32)
                  (t.txn.(i) land 0xffff_ffff))) ]
      in
      J.obj
        [ ("name", J.str (label t i));
          ("cat", J.str (List.hd (String.split_on_char '.' (label t i))));
          ("ph", J.str "X"); ("ts", J.float (us t.start.(i)));
          ("dur", J.float (float_of_int (t.stop.(i) - t.start.(i)) /. 1e3));
          ("pid", J.int 1); ("tid", J.int tid);
          ("args",
           J.obj ([ ("id", J.int i); ("parent", J.int t.parent.(i)) ] @ txn))
        ])

let first_start t = if t.n = 0 then 0 else t.start.(0)
