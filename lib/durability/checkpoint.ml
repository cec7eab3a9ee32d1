open Repro_relational
open Repro_protocol

type sender_state = {
  next_seq : int;
  acked_upto : int;
  window : (int * Message.to_source) list;
}

type queued = { update : Message.update; arrival : int; arrived_at : float }

module Order = struct
  (* The view's distinct tuples in [Tuple.compare] order with their counts
     as of the last [refresh], plus every tuple an install has touched
     since (duplicates allowed). [stale] forces a full sort. *)
  type t = {
    mutable tuples : Tuple.t array;
    mutable counts : int array;
    mutable stale : bool;
    mutable touched : Tuple.t list;
    mutable n_touched : int;
  }

  let create () =
    { tuples = [||]; counts = [||]; stale = true; touched = []; n_touched = 0 }

  let forget_touched t =
    t.touched <- [];
    t.n_touched <- 0

  let touch t delta =
    if not t.stale then begin
      Delta.iter (fun tup _ -> t.touched <- tup :: t.touched) delta;
      t.n_touched <- t.n_touched + Delta.cardinal delta;
      (* Past the view's own size a splice saves nothing over a full
         sort, and the touched list must not outgrow the view. *)
      if t.n_touched > max 16 (Array.length t.tuples) then begin
        t.stale <- true;
        forget_touched t
      end
    end

  let sort_all t bag =
    let tuples = Array.make (Bag.cardinal bag) [||] in
    ignore
      (Bag.fold
         (fun tup _ i ->
           tuples.(i) <- tup;
           i + 1)
         bag 0);
    Array.sort Tuple.compare tuples;
    t.tuples <- tuples;
    t.counts <- Array.map (Bag.count bag) tuples

  (* First slot of [a] whose tuple is not below [tup]. *)
  let lower_bound a tup =
    let lo = ref 0 and hi = ref (Array.length a) in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if Tuple.compare a.(mid) tup < 0 then lo := mid + 1 else hi := mid
    done;
    !lo

  (* Sort the k touched tuples, find each one's slot in the old order by
     binary search, and rebuild the order as blits of the untouched runs
     between them: k log n compares, no comparison of untouched tuples. *)
  let splice t bag =
    let ts = Array.of_list t.touched in
    Array.sort Tuple.compare ts;
    let m = ref 0 in
    Array.iter
      (fun tup ->
        if !m = 0 || not (Tuple.equal ts.(!m - 1) tup) then begin
          ts.(!m) <- tup;
          incr m
        end)
      ts;
    let m = !m and old = t.tuples and n = Array.length t.tuples in
    let slot = Array.init m (fun j -> lower_bound old ts.(j)) in
    let hit j = slot.(j) < n && Tuple.equal old.(slot.(j)) ts.(j) in
    let count = Array.init m (fun j -> Bag.count bag ts.(j)) in
    let size = ref n in
    for j = 0 to m - 1 do
      if hit j then decr size;
      if count.(j) <> 0 then incr size
    done;
    let tuples = Array.make !size [||] and counts = Array.make !size 0 in
    let src = ref 0 and dst = ref 0 in
    let copy_until stop =
      let run = stop - !src in
      Array.blit old !src tuples !dst run;
      Array.blit t.counts !src counts !dst run;
      src := stop;
      dst := !dst + run
    in
    for j = 0 to m - 1 do
      copy_until slot.(j);
      if hit j then incr src;
      if count.(j) <> 0 then begin
        tuples.(!dst) <- ts.(j);
        counts.(!dst) <- count.(j);
        incr dst
      end
    done;
    copy_until n;
    t.tuples <- tuples;
    t.counts <- counts

  let refresh t bag =
    if t.stale then sort_all t bag
    else if t.touched <> [] then splice t bag;
    t.stale <- false;
    forget_touched t

  let put b t =
    let n = Array.length t.tuples in
    Codec.put_int b n;
    for i = 0 to n - 1 do
      Codec.put_entry b t.tuples.(i) t.counts.(i)
    done
end

type t = {
  taken_at : float;
  wal_pos : int;
  view : Bag.t;
  view_order : Order.t option;
  queue : queued list;
  queue_next_arrival : int;
  next_qid : int;
  algo : Snap.t;
  recv_expected : int array;
  senders : sender_state array;
  breaker : Snap.t;  (* circuit-breaker state; Snap.Unit when none *)
  aux : Snap.t;  (* aux-store projections; Snap.Unit when off *)
}

let put_sender b s =
  Codec.put_int b s.next_seq;
  Codec.put_int b s.acked_upto;
  Codec.put_list b
    (fun b (seq, payload) ->
      Codec.put_int b seq;
      Codec.put_to_source b payload)
    s.window

let get_sender r =
  let next_seq = Codec.get_int r in
  let acked_upto = Codec.get_int r in
  let window =
    Codec.get_list r (fun r ->
        let seq = Codec.get_int r in
        let payload = Codec.get_to_source r in
        (seq, payload))
  in
  { next_seq; acked_upto; window }

let put_queued b q =
  Codec.put_update b q.update;
  Codec.put_int b q.arrival;
  Codec.put_float b q.arrived_at

let get_queued r =
  let update = Codec.get_update r in
  let arrival = Codec.get_int r in
  let arrived_at = Codec.get_float r in
  { update; arrival; arrived_at }

let put b t =
  Codec.put_float b t.taken_at;
  Codec.put_int b t.wal_pos;
  (match t.view_order with
  | Some o -> Order.put b o
  | None -> Codec.put_bag b t.view);
  Codec.put_list b put_queued t.queue;
  Codec.put_int b t.queue_next_arrival;
  Codec.put_int b t.next_qid;
  Snap.put b t.algo;
  Codec.put_list b (fun b i -> Codec.put_int b i) (Array.to_list t.recv_expected);
  Codec.put_list b put_sender (Array.to_list t.senders);
  Snap.put b t.breaker;
  Snap.put b t.aux

let get r =
  let taken_at = Codec.get_float r in
  let wal_pos = Codec.get_int r in
  let view = Codec.get_bag r in
  let queue = Codec.get_list r get_queued in
  let queue_next_arrival = Codec.get_int r in
  let next_qid = Codec.get_int r in
  let algo = Snap.get r in
  let recv_expected = Array.of_list (Codec.get_list r Codec.get_int) in
  let senders = Array.of_list (Codec.get_list r get_sender) in
  let breaker = Snap.get r in
  let aux = Snap.get r in
  { taken_at; wal_pos; view; view_order = None; queue; queue_next_arrival;
    next_qid; algo; recv_expected; senders; breaker; aux }

let encode = Codec.encode put
let decode = Codec.decode get
