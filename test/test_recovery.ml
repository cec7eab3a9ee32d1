(* Warehouse crash-recovery suite: durability-layer unit tests (codec /
   Snap / WAL / checkpoint round trips, the store's checkpoint cadence,
   backpressure admission), then the seeded warehouse-crash property
   harness — kill the warehouse mid-run, restart it from its latest
   checkpoint plus the WAL tail, and demand the same consistency verdict
   the algorithm earns without crashes, with a bit-identical final view
   and zero source refetch. Everything is deterministic per seed. *)

open Repro_sim
open Repro_relational
open Repro_protocol
open Repro_durability
open Repro_warehouse
open Repro_consistency
open Repro_harness
open Repro_workload
module Backpressure = Repro_serving.Backpressure

(* ————— codec round trips ————— *)

let roundtrip put get x = Codec.decode get (Codec.encode put x)

let test_codec_primitives () =
  List.iter
    (fun i ->
      Alcotest.(check int) (Printf.sprintf "int %d" i) i
        (roundtrip Codec.put_int Codec.get_int i))
    [ 0; 1; -1; 255; -256; 1 lsl 40; min_int; max_int ];
  List.iter
    (fun f ->
      Alcotest.(check (float 0.)) (Printf.sprintf "float %g" f) f
        (roundtrip Codec.put_float Codec.get_float f))
    [ 0.; -1.5; 3.141592653589793; 1e300; -1e-300 ];
  List.iter
    (fun s ->
      Alcotest.(check string) "string" s
        (roundtrip Codec.put_string Codec.get_string s))
    [ ""; "x"; String.make 300 'q'; "emb\000edded" ];
  Alcotest.(check (list int)) "int list" [ 3; 1; 2 ]
    (roundtrip
       (fun b -> Codec.put_list b Codec.put_int)
       (fun r -> Codec.get_list r Codec.get_int)
       [ 3; 1; 2 ])

let test_codec_corrupt_raises () =
  let raises f =
    match f () with exception Codec.Corrupt _ -> true | _ -> false
  in
  Alcotest.(check bool) "truncated int" true
    (raises (fun () -> Codec.decode Codec.get_int "ab"));
  Alcotest.(check bool) "trailing garbage" true
    (raises (fun () ->
         Codec.decode Codec.get_bool (Codec.encode Codec.put_bool true ^ "z")));
  Alcotest.(check bool) "bad bool tag" true
    (raises (fun () -> Codec.decode Codec.get_bool "\007"))

let test_codec_bag_canonical () =
  (* same bag content built in different insertion orders encodes to the
     same bytes — checkpoints of equal states are bit-identical *)
  let a = Bag.create () and b = Bag.create () in
  Bag.add a (Tuple.ints [ 1; 2 ]) 2;
  Bag.add a (Tuple.ints [ 3; 4 ]) 1;
  Bag.add b (Tuple.ints [ 3; 4 ]) 1;
  Bag.add b (Tuple.ints [ 1; 2 ]) 1;
  Bag.add b (Tuple.ints [ 1; 2 ]) 1;
  Alcotest.(check string) "equal bags, equal bytes"
    (Codec.encode Codec.put_bag a)
    (Codec.encode Codec.put_bag b);
  Alcotest.(check bool) "round trip preserves content" true
    (Bag.equal a (roundtrip Codec.put_bag Codec.get_bag a))

let test_snap_roundtrip () =
  let d = Delta.of_list [ (Tuple.ints [ 1; 2 ], 1); (Tuple.ints [ 5; 6 ], -2) ] in
  let u =
    { Message.txn = { Message.source = 2; seq = 7 }; delta = Delta.copy d;
      occurred_at = 4.25; global = Some { Message.gid = 3; parts = 2 } }
  in
  let s =
    Snap.List
      [ Snap.Unit; Snap.Bool true; Snap.Int (-42); Snap.Float 1.5;
        Snap.Str "state"; Snap.ints [ 1; 2; 3 ];
        Snap.Tup (Tuple.ints [ 9; 9 ]); Snap.Delta d; Snap.Update u;
        Snap.option (fun i -> Snap.Int i) None;
        Snap.option (fun i -> Snap.Int i) (Some 5) ]
  in
  Alcotest.(check bool) "snap round trip equal" true
    (Snap.equal s (Snap.decode (Snap.encode s)));
  Alcotest.(check bool) "distinct snaps differ" false
    (Snap.equal s (Snap.Int 0))

let test_wal_roundtrip_and_tail () =
  let u =
    { Message.txn = { Message.source = 0; seq = 3 };
      delta = Delta.insertion (Tuple.ints [ 1; 2 ]); occurred_at = 2.0;
      global = None }
  in
  let records =
    [ Wal.Update_received { update = u; arrived_at = 2.5 };
      Wal.Answer_received
        { link = 1;
          msg =
            Message.Answer
              { qid = 4; source = 1;
                partial =
                  Partial.of_source_delta (Paper_example.view ()) 1
                    (snd (Paper_example.d_r2 ())) } };
      Wal.Installed
        { delta = Delta.insertion (Tuple.ints [ 7; 8 ]);
          txns = [ { Message.source = 0; seq = 3 } ] } ]
  in
  List.iter
    (fun r ->
      let r' = Wal.decode_record (Wal.encode_record r) in
      Alcotest.(check string) "record round trip"
        (Wal.encode_record r) (Wal.encode_record r'))
    records;
  Alcotest.(check (list (option int))) "link_of"
    [ Some 0; Some 1; None ]
    (List.map Wal.link_of records);
  let w = Wal.create () in
  List.iter (Wal.append w) records;
  Alcotest.(check int) "length" 3 (Wal.length w);
  Alcotest.(check bool) "bytes counted" true (Wal.bytes w > 0);
  Alcotest.(check int) "tail from 1" 2 (List.length (Wal.records_from w 1));
  Alcotest.(check (list string)) "tail decodes in order"
    (List.map Wal.encode_record (List.tl records))
    (List.map Wal.encode_record (Wal.records_from w 1))

let test_checkpoint_roundtrip () =
  let view = Bag.of_list [ (Tuple.ints [ 1; 2; 3 ], 2) ] in
  let u =
    { Message.txn = { Message.source = 1; seq = 0 };
      delta = Delta.deletion (Tuple.ints [ 4; 5 ]); occurred_at = 1.0;
      global = None }
  in
  let c =
    { Checkpoint.taken_at = 12.5; wal_pos = 9; view;
      queue = [ { Checkpoint.update = u; arrival = 4; arrived_at = 1.75 } ];
      queue_next_arrival = 5; next_qid = 17;
      algo = Snap.List [ Snap.Int 1; Snap.Str "x" ];
      recv_expected = [| 3; 0; 8 |];
      senders =
        [| { Checkpoint.next_seq = 2; acked_upto = 1; window = [] };
           { Checkpoint.next_seq = 5; acked_upto = 2;
             window = [ (3, Message.Fetch { qid = 1; target = 0 }) ] };
           { Checkpoint.next_seq = 0; acked_upto = -1; window = [] } |];
      breaker = Snap.List [ Snap.Int 0; Snap.Int 2 ];
      aux = Snap.List [ Snap.Delta (Delta.insertion (Tuple.ints [ 7 ])) ] }
  in
  let c' = Checkpoint.decode ~view (Checkpoint.encode c) in
  Alcotest.(check string) "checkpoint bytes stable"
    (Checkpoint.encode c) (Checkpoint.encode c');
  Alcotest.(check string) "the view is not in the checkpoint's bytes"
    (Checkpoint.encode c)
    (Checkpoint.encode { c with view = Bag.create () });
  Alcotest.(check bool) "decode takes the view it is given" true
    (c'.Checkpoint.view == view);
  Alcotest.(check int) "wal_pos" 9 c'.Checkpoint.wal_pos;
  Alcotest.(check int) "queue length" 1 (List.length c'.Checkpoint.queue);
  Alcotest.(check int) "sender next_seq" 5 c'.Checkpoint.senders.(1).Checkpoint.next_seq;
  Alcotest.(check int) "sender window" 1
    (List.length c'.Checkpoint.senders.(1).Checkpoint.window)

let dummy_capture () =
  { Checkpoint.taken_at = 0.; wal_pos = 0; view = Bag.create ();
    queue = []; queue_next_arrival = 0; next_qid = 0; algo = Snap.Unit;
    recv_expected = [||]; senders = [||]; breaker = Snap.Unit;
    aux = Snap.Unit }

let test_store_checkpoint_cadence () =
  let s = Store.create ~checkpoint_every:3 () in
  let wal_pos = ref 0 in
  Store.set_capture s (fun () -> { (dummy_capture ()) with wal_pos = !wal_pos });
  let record =
    Wal.Installed { delta = Delta.empty (); txns = [] }
  in
  for i = 1 to 10 do
    Store.log s record;
    wal_pos := i;
    Store.maybe_checkpoint s
  done;
  Alcotest.(check int) "10 records" 10 (Store.wal_length s);
  Alcotest.(check int) "checkpoints every 3 records" 3 (Store.checkpoints s);
  (match Store.recovery s with
  | Some c, tail ->
      Alcotest.(check int) "latest covers 9 records" 9 c.Checkpoint.wal_pos;
      Alcotest.(check int) "tail after latest checkpoint" 1
        (List.length tail)
  | None, _ -> Alcotest.fail "no checkpoint");
  let off = Store.create ~checkpoint_every:0 () in
  Store.set_capture off dummy_capture;
  for _ = 1 to 10 do
    Store.log off record;
    Store.maybe_checkpoint off
  done;
  Alcotest.(check int) "0 disables checkpoints" 0 (Store.checkpoints off);
  Alcotest.(check int) "recovery would replay the whole log" 10
    (List.length (snd (Store.recovery off)));
  (* The store keeps the latest checkpoint's WAL position beside its
     bytes: the tail after two checkpoints starts at the second one's
     [wal_pos], which need not be the WAL length at capture, and the
     installs between the image (the first checkpoint) and it are folded
     into the view. *)
  let s = Store.create ~checkpoint_every:0 () in
  let records =
    List.init 7 (fun i ->
        Wal.Installed
          { delta = Delta.insertion (Tuple.ints [ i ]);
            txns = [ { Message.source = 0; seq = i } ] })
  in
  Store.set_capture s (fun () -> { (dummy_capture ()) with wal_pos = !wal_pos });
  List.iteri
    (fun i r ->
      Store.log s r;
      if i = 2 || i = 5 then begin
        wal_pos := i;
        Store.checkpoint_now s
      end)
    records;
  let c, tail = Store.recovery s in
  Alcotest.(check (list string)) "tail starts at the second wal_pos"
    (List.map Wal.encode_record (List.filteri (fun i _ -> i >= 5) records))
    (List.map Wal.encode_record tail);
  Alcotest.check Rig.bag "view = image + installs [2, 5)"
    (Bag.of_list (List.init 3 (fun i -> (Tuple.ints [ i + 2 ], 1))))
    (Option.get c).Checkpoint.view

(* ————— image + WAL-fold checkpoints ————— *)

(* Installs every delivered update's delta, unchanged, as a view delta:
   the smallest algorithm that drives the node's install path. *)
module Direct : Algorithm.S = struct
  type t = Algorithm.ctx

  let name = "direct"
  let create ctx = ctx

  let on_update (ctx : Algorithm.ctx) _ =
    match Update_queue.pop ctx.queue with
    | Some e -> ctx.install e.Update_queue.update.Message.delta ~txns:[ e ]
    | None -> ()

  let on_answer _ _ = ()
  let on_source_down _ _ = ()
  let on_source_up _ _ = ()
  let idle (ctx : Algorithm.ctx) = Update_queue.is_empty ctx.queue
  let snapshot _ = Snap.Unit
  let restore ctx _ = ctx
end

(* A node running [Direct] with a store that checkpoints only when told
   to. [node] changes at every recovery. *)
(* lint: allow L5 test harness around the node, not algorithm state: Direct's snapshot is Unit *)
type direct = { store : Store.t; mutable node : Node.t; mutable seq : int }

let direct_node ?(capture_check = fun (_ : Checkpoint.t) -> ()) init =
  let store = Store.create ~checkpoint_every:0 () in
  let node =
    Node.create (Engine.create ~seed:1L ()) ~view:(Chain.view ~n:2 ())
      ~algorithm:(module Direct) ~send:(fun _ _ -> ())
      ~init:(Relation.of_tuples init) ~durability:store ~record_history:false
      ()
  in
  let d = { store; node; seq = 0 } in
  Store.set_capture store (fun () ->
      let c =
        Node.checkpoint d.node ~wal_pos:(Store.wal_length store)
          ~recv_expected:[||] ~senders:[||]
      in
      capture_check c;
      c);
  d

let deliver d delta =
  Node.deliver d.node
    (Message.Update_notice
       { Message.txn = { Message.source = 0; seq = d.seq }; delta;
         occurred_at = 0.; global = None });
  d.seq <- d.seq + 1

(* Restart [d]'s node from [Store.recovery] (or from genesis when no
   checkpoint was taken) plus the WAL tail; the recovered checkpoint is
   returned for inspection. *)
let recover_direct d =
  let checkpoint, tail = Store.recovery d.store in
  let node = Node.recover ~prev:d.node ?checkpoint () in
  Node.begin_replay node;
  List.iter (Node.replay_record node) tail;
  Node.end_replay node;
  d.node <- node;
  checkpoint

(* One to four entries over a 16x16 domain: inserts of new and of
   deleted tuples, deletes to zero and by one. *)
let random_delta rng model =
  let d = Delta.empty () in
  let present = Array.of_list (Bag.to_sorted_list model) in
  for _ = 0 to Rng.int rng 4 do
    let tup, n =
      match Rng.int rng 3 with
      | (0 | 1) when present <> [||] ->
          let tup, c = present.(Rng.int rng (Array.length present)) in
          (tup, if Rng.bool rng 0.7 then -c else -1)
      | _ -> (Tuple.ints [ Rng.int rng 16; Rng.int rng 16 ], 1 + Rng.int rng 2)
    in
    if Delta.count d tup = 0 then Delta.add d tup n
  done;
  d

let recover_seeds = Rig.seeds_env ~var:"RECOVER_SEEDS" ~default:5

(* Recovery rebuilds the view from the latest image plus the installs
   the WAL logged after it. Random installs (deletes that drive tuples
   out included) and bursts past the image rule, between captures and
   recoveries: from genesis, and from checkpoints with zero, a few and
   many installs since their image. Every recovered view must equal the
   model's at capture, every other field must encode as the live
   capture's, and the store's image must be the model's view at the
   capture the rule (first capture, or logged install weight reaching
   max 16 |V|) says wrote it. *)
let test_checkpoint_image_differential () =
  Rig.for_seeds recover_seeds @@ fun seed ->
    let ctx fmt = Printf.ksprintf (Printf.sprintf "seed %d: %s" seed) fmt in
    let rng = Rng.create (Int64.of_int (7919 * seed)) in
    let init =
      List.sort_uniq Tuple.compare
        (List.init 200 (fun _ -> Tuple.ints [ Rng.int rng 16; Rng.int rng 16 ]))
    in
    let model = Bag.of_list (List.map (fun t -> (t, 1)) init) in
    (* the model of the latest capture and of the image rule *)
    let live_state = ref "" and live_view = ref (Bag.create ()) in
    let image = ref None and weight_since_image = ref 0 in
    let installs_since_image = ref 0 and installs_at_capture = ref 0 in
    let images = ref 0 in
    let capture_check (c : Checkpoint.t) =
      Alcotest.check Rig.bag (ctx "capture aliases the view") model c.view;
      if
        Option.is_none !image
        || !weight_since_image >= max 16 (Bag.cardinal model)
      then begin
        image := Some (Codec.encode Codec.put_bag model);
        incr images;
        weight_since_image := 0;
        installs_since_image := 0
      end;
      installs_at_capture := !installs_since_image;
      live_state := Checkpoint.encode c;
      live_view := Bag.copy model
    in
    let d = direct_node ~capture_check init in
    let capture () =
      Store.checkpoint_now d.store;
      match Store.durable_bytes d.store with
      | Some (img, _) ->
          Alcotest.(check string) (ctx "image written by the rule")
            (Option.get !image) img
      | None -> Alcotest.fail (ctx "no image after a capture")
    in
    let step () =
      let delta = random_delta rng model in
      Bag.merge_into ~into:model delta;
      weight_since_image := !weight_since_image + Delta.weight delta;
      incr installs_since_image;
      deliver d delta
    in
    let steps n = for _ = 1 to n do step () done in
    let genesis = ref 0 and zero = ref 0 and few = ref 0 and many = ref 0 in
    let recover () =
      (match recover_direct d with
      | None -> incr genesis
      | Some c ->
          let k = !installs_at_capture in
          incr (if k = 0 then zero else if k <= 3 then few else many);
          Alcotest.check Rig.bag
            (ctx "recovered view (%d installs since the image)" k)
            !live_view c.view;
          Alcotest.(check string)
            (ctx "recovered state = live capture's")
            !live_state (Checkpoint.encode c));
      Alcotest.check Rig.bag (ctx "view after replay") model
        (Node.view_contents d.node)
    in
    steps 3;
    recover ();
    capture ();
    recover ();
    steps 2;
    capture ();
    recover ();
    steps 6;
    capture ();
    recover ();
    steps 60;
    capture ();
    recover ();
    for _ = 1 to 100 do
      match Rng.int rng 10 with
      | 0 | 1 | 2 | 3 | 4 -> step ()
      | 5 | 6 -> capture ()
      | 7 -> steps 20
      | _ -> recover ()
    done;
    capture ();
    recover ();
    List.iter
      (fun (what, n) ->
        Alcotest.(check bool) (ctx "recovered from %s" what) true (!n > 0))
      [ ("genesis", genesis); ("zero installs since the image", zero);
        ("a few installs since the image", few);
        ("many installs since the image", many) ];
    Alcotest.(check bool) (ctx "the image was rewritten") true (!images > 1)

(* Words allocated since the last call to [start_counting]. A collection
   inside the window may count promoted words as major allocations
   before it counts them as promoted, so the window starts on an empty
   minor heap with no major work pending. *)
let allocated_words () =
  let minor, promoted, major = Gc.counters () in
  minor +. major -. promoted

let start_counting () =
  Gc.full_major ();
  allocated_words ()

(* The bytes written and the words allocated by one checkpoint taken
   after a two-tuple install, on a direct node whose view has [n]
   tuples and was imaged by the checkpoint before. *)
let checkpoint_after_small_install n =
  let d =
    direct_node (List.init n (fun i -> Tuple.ints [ i; i mod 7; i mod 11 ]))
  in
  deliver d (Delta.insertion (Tuple.ints [ n; 0; 0 ]));
  Store.checkpoint_now d.store;
  let delta = Delta.insertion (Tuple.ints [ n + 1; 0; 0 ]) in
  Delta.add delta (Tuple.ints [ 17; 3; 6 ]) (-1);
  deliver d delta;
  let bytes = Store.checkpoint_bytes d.store in
  let before = start_counting () in
  Store.checkpoint_now d.store;
  let after = allocated_words () in
  (Store.checkpoint_bytes d.store - bytes, after -. before)

(* At |V| = 5,000, one checkpoint after a two-tuple install allocates at
   most twice the words of the string it encodes: no view copy, no full
   sort, no regrown buffer. *)
let test_checkpoint_allocation () =
  let n = 5000 in
  let bytes, words = checkpoint_after_small_install n in
  let string_words = float_of_int bytes /. 8. in
  Alcotest.(check bool)
    (Printf.sprintf
       "one checkpoint at |V| = %d allocates %.0f words, within 2x of its \
        %.0f-word encoding"
       n words string_words)
    true
    (words <= 2. *. string_words)

(* The checkpoint after a two-tuple install writes no view: its bytes
   and its allocation are the same at |V| = 500 and at |V| = 5,000. *)
let test_checkpoint_scale () =
  let bytes_s, words_s = checkpoint_after_small_install 500 in
  let bytes_l, words_l = checkpoint_after_small_install 5000 in
  Alcotest.(check int) "bytes written at |V| = 5,000 = at |V| = 500" bytes_s
    bytes_l;
  Alcotest.(check bool)
    (Printf.sprintf
       "words allocated at |V| = 5,000 (%.0f) <= at |V| = 500 (%.0f)" words_l
       words_s)
    true (words_l <= words_s)

(* ————— backpressure + bounded queue units ————— *)

let test_update_queue_capacity () =
  let q = Update_queue.create ~capacity:2 () in
  let u seq =
    { Message.txn = { Message.source = 0; seq }; delta = Delta.empty ();
      occurred_at = 0.; global = None }
  in
  ignore (Update_queue.append q (u 0) ~arrived_at:0.);
  ignore (Update_queue.append q (u 1) ~arrived_at:0.);
  Alcotest.(check bool) "over-capacity append raises" true
    (match Update_queue.append q (u 2) ~arrived_at:0. with
    | exception Invalid_argument _ -> true
    | _ -> false);
  Alcotest.(check bool) "capacity <= 0 rejected" true
    (match Update_queue.create ~capacity:0 () with
    | exception Invalid_argument _ -> true
    | _ -> false)

let test_backpressure_fifo_and_shed () =
  let bp = Backpressure.create ~n_sources:2 ~capacity:2 in
  let ran = ref [] in
  let submit source ~noop tag =
    Backpressure.submit bp ~source ~noop (fun () -> ran := tag :: !ran)
  in
  submit 0 ~noop:false "a0";
  submit 1 ~noop:false "b0";
  (* capacity exhausted: these wait *)
  submit 0 ~noop:false "a1";
  submit 1 ~noop:false "b1";
  (* a no-op at capacity is shed, not queued *)
  submit 0 ~noop:true "a-noop";
  (* a no-op with a token free must still wait behind its source's
     earlier waiters — shed again *)
  Alcotest.(check (list string)) "only first two ran" [ "b0"; "a0" ] !ran;
  Alcotest.(check int) "two deferred" 2 (Backpressure.deferred bp);
  Alcotest.(check int) "one shed" 1 (Backpressure.shed bp);
  Alcotest.(check int) "two waiting" 2 (Backpressure.waiting_count bp);
  Backpressure.release bp 1;
  Alcotest.(check (list string)) "cursor admits source 0 first"
    [ "a1"; "b0"; "a0" ] !ran;
  Backpressure.release bp 1;
  Alcotest.(check (list string)) "then the next source" [ "b1"; "a1"; "b0"; "a0" ]
    !ran;
  Alcotest.(check int) "queues drained" 0 (Backpressure.waiting_count bp)

let test_backpressure_round_robin_no_starvation () =
  let bp = Backpressure.create ~n_sources:3 ~capacity:1 in
  let ran = ref [] in
  let submit source tag =
    Backpressure.submit bp ~source ~noop:false (fun () -> ran := tag :: !ran)
  in
  submit 0 "a0";  (* takes the only token *)
  submit 1 "b";
  submit 2 "c";
  (* Sustained source-0 pressure: a fresh source-0 update arrives before
     every release. The old lowest-source-first policy admitted only
     source 0's queue here and starved source 2 (the highest index)
     forever; the round-robin cursor must admit every source within
     n releases. *)
  for i = 1 to 4 do
    submit 0 (Printf.sprintf "a%d" i);
    Backpressure.release bp 1
  done;
  Alcotest.(check (list string))
    "round-robin admits sources 1 and 2 despite sustained source-0 load"
    [ "a0"; "a1"; "b"; "c"; "a2" ]
    (List.rev !ran);
  Alcotest.(check int) "the rest still waits" 2
    (Backpressure.waiting_count bp)

(* ————— breaker probe schedule across checkpoint/restore mid-Open ————— *)

(* Capture a breaker snapshot while source 0 is Open with a probe timer
   pending (exactly what a warehouse checkpoint taken mid-outage holds),
   then restore it into two fresh incarnations on identically seeded
   engines. Restore re-schedules the probe from its own seeded rng
   stream, so both incarnations must replay a bit-identical probe
   schedule — crash recovery cannot fork the simulation. Each probe is
   answered with another deadline expiry (k = 1 re-trips immediately),
   walking the backoff ladder a few rungs. *)
let test_breaker_probe_schedule_deterministic_across_restore () =
  let mk () =
    let engine = Engine.create ~seed:77L () in
    let metrics = Metrics.create () in
    let b =
      Breaker.create engine
        ~rng:(Rng.split (Engine.rng engine))
        ~config:{ Breaker.default_config with Breaker.k = 1 }
        ~metrics ~n:2
    in
    (engine, b)
  in
  let snap =
    let engine, b = mk () in
    let s = ref Repro_durability.Snap.Unit in
    Engine.at engine ~time:0. (fun () ->
        Breaker.force_open b 0;
        (* mid-Open: the probe timer is pending, not yet fired *)
        s := Breaker.snapshot b;
        Breaker.halt b);
    ignore (Engine.run engine);
    !s
  in
  let probes_after_restore () =
    let engine, b = mk () in
    let times = ref [] in
    Breaker.set_on_probe b (fun i ->
        times := (Engine.now engine, i) :: !times;
        if List.length !times < 4 then ignore (Breaker.record_timeout b i));
    Engine.at engine ~time:0. (fun () -> Breaker.restore b snap);
    ignore (Engine.run engine);
    List.rev !times
  in
  let a = probes_after_restore () in
  let b = probes_after_restore () in
  Alcotest.(check int) "restored breaker probes down the backoff ladder" 4
    (List.length a);
  Alcotest.(check bool) "probe schedule bit-identical across restores" true
    (a = b);
  List.iter
    (fun (_, i) -> Alcotest.(check int) "probes target the open source" 0 i)
    a

(* ————— seeded warehouse-crash property harness ————— *)

let n_updates = 20

(* Base scenario: lossy links + one or two scripted warehouse outages
   (or none, for the crash-free twin). *)
let crashy_scenario ?(wh_crashes = [ { Fault.wh_down_at = 8.; wh_up_at = 20. } ])
    ?(crashes = []) ?(link = Fault.lossy ~drop:0.1 ~duplicate:0.05 ())
    ?(checkpoint_every = 4) seed =
  { Scenario.default with
    Scenario.name = "crashy-prop";
    init_size = 12;
    domain = 8;
    stream = { Update_gen.default with Update_gen.n_updates; mean_gap = 1.5 };
    faults = { Fault.link; crashes; wh_crashes };
    checkpoint_every;
    seed }

let run_one scenario algo =
  let r = Experiment.run scenario algo in
  Alcotest.(check bool)
    (Printf.sprintf "seed %Ld quiesces" scenario.Scenario.seed)
    true r.Experiment.completed;
  Alcotest.(check int)
    (Printf.sprintf "seed %Ld installs every update" scenario.Scenario.seed)
    n_updates r.Experiment.metrics.Metrics.updates_incorporated;
  (* Recovery must come from the checkpoint + WAL tail alone: no
     Snapshot-style refetch of base relations, ever. *)
  Alcotest.(check int)
    (Printf.sprintf "seed %Ld never refetches a base relation"
       scenario.Scenario.seed)
    0 r.Experiment.metrics.Metrics.snapshots_fetched;
  r

let random_recovery_schedule seed =
  let rng = Rng.create (Int64.add 104729L (Int64.mul 31L seed)) in
  Fault.random_recovery rng ~n_sources:Scenario.default.Scenario.n_sources
    ~horizon:(float_of_int n_updates *. 1.5)

(* Acceptance criterion: SWEEP stays *complete* across 50 random
   warehouse-crash schedules (each with guaranteed outages plus random
   link faults / source crashes), and the aggregate metrics show recovery
   actually ran — records replayed, checkpoints taken, crashes counted. *)
let test_sweep_complete_across_crashes () =
  let crashes = ref 0 and replayed = ref 0 and ckpts = ref 0 in
  for seed = 0 to 49 do
    let f = random_recovery_schedule (Int64.of_int seed) in
    let scenario =
      crashy_scenario ~wh_crashes:f.Fault.wh_crashes ~crashes:f.Fault.crashes
        ~link:f.Fault.link (Int64.of_int seed)
    in
    let r = run_one scenario (module Sweep : Algorithm.S) in
    Alcotest.check Rig.verdict
      (Printf.sprintf "seed %d complete" seed)
      Checker.Complete r.Experiment.verdict.Checker.verdict;
    crashes := !crashes + r.Experiment.metrics.Metrics.wh_crashes;
    replayed := !replayed + r.Experiment.metrics.Metrics.replayed_records;
    ckpts := !ckpts + r.Experiment.metrics.Metrics.checkpoints
  done;
  Alcotest.(check bool) "warehouse actually crashed" true (!crashes >= 50);
  Alcotest.(check bool) "WAL records were replayed" true (!replayed > 0);
  Alcotest.(check bool) "checkpoints were taken" true (!ckpts > 0)

let at_least_strong ~tag algo seeds =
  List.iter
    (fun seed ->
      let f = random_recovery_schedule seed in
      let scenario =
        crashy_scenario ~wh_crashes:f.Fault.wh_crashes ~crashes:f.Fault.crashes
          ~link:f.Fault.link seed
      in
      let r = run_one scenario algo in
      let v = r.Experiment.verdict.Checker.verdict in
      Alcotest.(check bool)
        (Printf.sprintf "%s seed %Ld at least strong (got %s)" tag seed
           (Checker.verdict_to_string v))
        true
        (Checker.compare_verdict v Checker.Strong <= 0))
    seeds

let seeds n = List.init n Int64.of_int

let test_nested_sweep_strong_across_crashes () =
  at_least_strong ~tag:"nested-sweep" (module Nested_sweep : Algorithm.S)
    (seeds 25)

let test_strobe_strong_across_crashes () =
  at_least_strong ~tag:"strobe" (module Strobe : Algorithm.S) (seeds 25)

(* Exactly-once across the crash: for each seed, the run with mid-run
   crash-restarts must end with a final view bit-identical to its
   crash-free twin (same seed, same link faults, no outages). A lost or
   double-applied update would leave a different bag. *)
let test_final_view_identical_with_and_without_crash () =
  Rig.for_seeds ~from:0 12 @@ fun seed ->
    let seed = Int64.of_int seed in
    let crashed =
      Experiment.run
        (crashy_scenario
           ~wh_crashes:
             [ { Fault.wh_down_at = 6.; wh_up_at = 14. };
               { Fault.wh_down_at = 22.; wh_up_at = 30. } ]
           seed)
        (module Sweep : Algorithm.S)
    in
    let clean =
      Experiment.run (crashy_scenario ~wh_crashes:[] seed)
        (module Sweep : Algorithm.S)
    in
    Alcotest.(check bool)
      (Printf.sprintf "seed %Ld crashed run quiesces" seed)
      true crashed.Experiment.completed;
    Alcotest.(check bool)
      (Printf.sprintf "seed %Ld final views bit-identical" seed)
      true
      (Bag.equal crashed.Experiment.final_view clean.Experiment.final_view);
    Alcotest.(check bool)
      (Printf.sprintf "seed %Ld crash path exercised" seed)
      true
      (crashed.Experiment.metrics.Metrics.wh_crashes = 2
      && clean.Experiment.metrics.Metrics.wh_crashes = 0)

(* Crash-recovery runs replay bit-identically per seed. *)
let test_crashy_run_deterministic () =
  let run () =
    Experiment.run (crashy_scenario 17L) (module Sweep : Algorithm.S)
  in
  let a = run () and b = run () in
  Rig.check_replay ~ctx:"crashy" a b;
  Alcotest.(check int) "same installs"
    a.Experiment.metrics.Metrics.installs b.Experiment.metrics.Metrics.installs;
  Alcotest.(check int) "same WAL records"
    a.Experiment.metrics.Metrics.wal_records
    b.Experiment.metrics.Metrics.wal_records;
  Alcotest.(check int) "same replayed records"
    a.Experiment.metrics.Metrics.replayed_records
    b.Experiment.metrics.Metrics.replayed_records;
  Alcotest.(check int) "same checkpoint bytes"
    a.Experiment.metrics.Metrics.checkpoint_bytes
    b.Experiment.metrics.Metrics.checkpoint_bytes

(* WAL-only recovery: checkpointing disabled, the whole log replays. *)
let test_recovery_without_checkpoints () =
  let r =
    run_one (crashy_scenario ~checkpoint_every:0 3L) (module Sweep : Algorithm.S)
  in
  Alcotest.check Rig.verdict "still complete" Checker.Complete
    r.Experiment.verdict.Checker.verdict;
  Alcotest.(check int) "no checkpoints taken" 0
    r.Experiment.metrics.Metrics.checkpoints;
  Alcotest.(check bool) "replay happened from the log alone" true
    (r.Experiment.metrics.Metrics.replayed_records > 0)

(* The remaining algorithms survive a crash window too (smoke level):
   C-strobe on the distributed topology, ECA on the centralized one. *)
let test_c_strobe_crashy_smoke () =
  let scenario = crashy_scenario ~link:Fault.reliable 5L in
  let r = Experiment.run scenario (module C_strobe : Algorithm.S) in
  Alcotest.(check bool) "quiesces" true r.Experiment.completed;
  Alcotest.(check int) "all updates incorporated" n_updates
    r.Experiment.metrics.Metrics.updates_incorporated;
  Alcotest.(check bool) "not inconsistent" true
    (r.Experiment.verdict.Checker.verdict <> Checker.Inconsistent);
  Alcotest.(check bool) "crashed and recovered" true
    (r.Experiment.metrics.Metrics.wh_crashes = 1
    && r.Experiment.metrics.Metrics.replayed_records >= 0)

let test_eca_crashy_smoke () =
  let scenario =
    { (crashy_scenario ~link:Fault.reliable 7L) with
      Scenario.topology = Scenario.Centralized }
  in
  let r = Experiment.run scenario (module Eca : Algorithm.S) in
  Alcotest.(check bool) "quiesces" true r.Experiment.completed;
  Alcotest.(check int) "all updates incorporated" n_updates
    r.Experiment.metrics.Metrics.updates_incorporated;
  Alcotest.(check bool) "not inconsistent" true
    (r.Experiment.verdict.Checker.verdict <> Checker.Inconsistent);
  Alcotest.(check int) "crashed once" 1 r.Experiment.metrics.Metrics.wh_crashes

(* ————— bounded queue under load ————— *)

let test_bounded_queue_backpressure () =
  let n = 60 in
  let scenario =
    { Scenario.default with
      Scenario.name = "bounded-queue";
      stream =
        { Update_gen.default with Update_gen.n_updates = n; mean_gap = 0.2 };
      queue_capacity = Some 4 }
  in
  let r = Experiment.run scenario (module Sweep : Algorithm.S) in
  Alcotest.(check bool) "quiesces" true r.Experiment.completed;
  Alcotest.check Rig.verdict "still complete" Checker.Complete
    r.Experiment.verdict.Checker.verdict;
  Alcotest.(check bool) "queue bounded by capacity" true
    (r.Experiment.metrics.Metrics.max_queue <= 4);
  Alcotest.(check bool) "high-watermark recorded" true
    (r.Experiment.metrics.Metrics.max_queue >= 1);
  Alcotest.(check bool) "backpressure engaged" true
    (r.Experiment.metrics.Metrics.queue_deferred > 0);
  Alcotest.(check int) "every admitted update incorporated" n
    (r.Experiment.metrics.Metrics.updates_incorporated
    + r.Experiment.metrics.Metrics.queue_shed)

(* An unbounded twin of the same workload incorporates everything and
   defers nothing — the knob defaults to off. *)
let test_unbounded_queue_untouched () =
  let scenario =
    { Scenario.default with
      Scenario.name = "unbounded-queue";
      stream =
        { Update_gen.default with Update_gen.n_updates = 60; mean_gap = 0.2 } }
  in
  let r = Experiment.run scenario (module Sweep : Algorithm.S) in
  Alcotest.(check int) "nothing deferred" 0
    r.Experiment.metrics.Metrics.queue_deferred;
  Alcotest.(check int) "nothing shed" 0 r.Experiment.metrics.Metrics.queue_shed;
  Alcotest.(check int) "all incorporated" 60
    r.Experiment.metrics.Metrics.updates_incorporated

let suite =
  [ Alcotest.test_case "codec: primitive round trips" `Quick
      test_codec_primitives;
    Alcotest.test_case "codec: malformed bytes raise Corrupt" `Quick
      test_codec_corrupt_raises;
    Alcotest.test_case "codec: equal bags encode identically" `Quick
      test_codec_bag_canonical;
    Alcotest.test_case "snap: tree round trip" `Quick test_snap_roundtrip;
    Alcotest.test_case "wal: record round trip and tail" `Quick
      test_wal_roundtrip_and_tail;
    Alcotest.test_case "checkpoint: full round trip" `Quick
      test_checkpoint_roundtrip;
    Alcotest.test_case "store: checkpoint cadence and tail" `Quick
      test_store_checkpoint_cadence;
    Alcotest.test_case "checkpoint: image + WAL fold" `Quick
      test_checkpoint_image_differential;
    Alcotest.test_case "checkpoint: allocation within 2x of its bytes" `Quick
      test_checkpoint_allocation;
    Alcotest.test_case "checkpoint: bytes and words independent of |V|" `Quick
      test_checkpoint_scale;
    Alcotest.test_case "queue: capacity enforced" `Quick
      test_update_queue_capacity;
    Alcotest.test_case "backpressure: per-source FIFO, shed, release" `Quick
      test_backpressure_fifo_and_shed;
    Alcotest.test_case "backpressure: round-robin admission, no starvation"
      `Quick test_backpressure_round_robin_no_starvation;
    Alcotest.test_case "breaker: probe schedule deterministic across restore"
      `Quick test_breaker_probe_schedule_deterministic_across_restore;
    Alcotest.test_case "property: sweep complete on 50 crashy seeds" `Quick
      test_sweep_complete_across_crashes;
    Alcotest.test_case "property: nested sweep strong on 25 crashy seeds"
      `Quick test_nested_sweep_strong_across_crashes;
    Alcotest.test_case "property: strobe strong on 25 crashy seeds" `Quick
      test_strobe_strong_across_crashes;
    Alcotest.test_case "property: final view identical with/without crash"
      `Quick test_final_view_identical_with_and_without_crash;
    Alcotest.test_case "property: crashy runs deterministic per seed" `Quick
      test_crashy_run_deterministic;
    Alcotest.test_case "recovery works with checkpoints disabled" `Quick
      test_recovery_without_checkpoints;
    Alcotest.test_case "smoke: c-strobe across a crash window" `Quick
      test_c_strobe_crashy_smoke;
    Alcotest.test_case "smoke: eca (centralized) across a crash window" `Quick
      test_eca_crashy_smoke;
    Alcotest.test_case "bounded queue: backpressure keeps run complete" `Quick
      test_bounded_queue_backpressure;
    Alcotest.test_case "unbounded queue: knob off changes nothing" `Quick
      test_unbounded_queue_untouched ]
