(* Indexed interference (DESIGN.md §10).

   The update queue keeps, per source, a count of queued entries and, on
   demand, column indexes over the net sum of their deltas; a correction
   probes those instead of re-summing the backlog. Two properties pin
   it:

   - model: under random sequences of every queue mutation, each
     source's count and every live index agree with a brute-force
     Delta.sum of that source's entries, and a drained source holds no
     index;
   - scale: once the index exists, one correction allocates the same
     with 50 or 1,000 queued updates from the interfering source — its
     cost follows the TempView and its matches, not the queue.

   The differential against Delta.sum + Algebra.compensate lives in
   test_join_strategies.ml, where JOIN_SEEDS scales it. *)

open Repro_relational
open Repro_sim
open Repro_protocol
open Repro_warehouse
open Repro_workload

let n_sources = 3
let domain = 3

let source (e : Update_queue.entry) = e.update.Message.txn.Message.source

(* One to three tuples over a tiny domain, some of them deletions, so
   different entries of one source cancel in the net sum. *)
let random_update rng ~source ~seq =
  let delta = Delta.empty () in
  for _ = 0 to Rng.int rng 3 do
    Delta.add delta
      (Chain.tuple ~key:(Rng.int rng domain) ~a:(Rng.int rng domain)
         ~b:(Rng.int rng domain))
      (if Rng.bool rng 0.4 then -1 else 1)
  done;
  { Message.txn = { Message.source; seq }; delta; occurred_at = 0.;
    global = None }

let brute_sum q j =
  Delta.sum
    (List.filter_map
       (fun (e : Update_queue.entry) ->
         if source e = j then Some e.update.Message.delta else None)
       (Update_queue.entries q))

let sorted rows = List.sort compare rows

(* Every live index of every source against the brute-force net sum. *)
let check_state ~ctx q =
  for j = 0 to n_sources - 1 do
    let mine =
      List.filter (fun e -> source e = j) (Update_queue.entries q)
    in
    Alcotest.(check int)
      (Printf.sprintf "%s: count of source %d" ctx j)
      (List.length mine) (Update_queue.count_from q j);
    if mine = [] then
      Alcotest.(check (list int))
        (Printf.sprintf "%s: drained source %d holds no index" ctx j)
        [] (Update_queue.indexed_columns q j)
    else begin
      let net = brute_sum q j in
      List.iter
        (fun col ->
          let what = Printf.sprintf "%s: source %d column %d" ctx j col in
          match Update_queue.interference q j ~col with
          | None -> Alcotest.fail (what ^ ": live index not returned")
          | Some idx ->
              Alcotest.(check int) (what ^ ": distinct tuples")
                (Delta.cardinal net) (Col_index.cardinal idx);
              for v = 0 to domain - 1 do
                let value = Value.int v in
                let expected =
                  Delta.fold
                    (fun tup c acc ->
                      if Tuple.get tup col = value then (tup, c) :: acc
                      else acc)
                    net []
                in
                Alcotest.(check bool)
                  (Printf.sprintf "%s: probe %d ≡ Delta.sum" what v)
                  true
                  (sorted expected = sorted (Col_index.probe idx value))
              done)
        (Update_queue.indexed_columns q j)
    end
  done

let run_model seed =
  let rng = Rng.create (Int64.of_int (9100 + seed)) in
  let q = ref (Update_queue.create ()) in
  let seq = ref 0 and popped = ref [] in
  for step = 1 to 150 do
    let ctx = Printf.sprintf "seed %d step %d" seed step in
    let remember es = popped := List.rev_append es !popped in
    (match Rng.int rng 9 with
    | 0 | 1 ->
        incr seq;
        ignore
          (Update_queue.append !q
             (random_update rng ~source:(Rng.int rng n_sources) ~seq:!seq)
             ~arrived_at:0.)
    | 2 -> remember (Option.to_list (Update_queue.pop !q))
    | 3 -> remember (Update_queue.take !q ~max:(Rng.int rng 3))
    | 4 -> (
        match !popped with
        | e :: rest ->
            popped := rest;
            Update_queue.push_front !q e
        | [] -> ())
    | 5 ->
        let parked = Rng.int rng n_sources in
        remember
          (Update_queue.take_eligible !q ~max:(Rng.int rng 3)
             ~eligible:(fun e -> source e <> parked))
    | 6 ->
        remember (Update_queue.take_from_source !q (Rng.int rng n_sources))
    | 7 ->
        (* crash recovery: indexes are derived, never carried over *)
        q :=
          Update_queue.of_entries (Update_queue.entries !q)
            ~next_arrival:(Update_queue.last_arrival !q + 1);
        for j = 0 to n_sources - 1 do
          Alcotest.(check (list int))
            (Printf.sprintf "%s: restored source %d starts unindexed" ctx j)
            [] (Update_queue.indexed_columns !q j)
        done
    | _ ->
        (* a correction asks for an index, which later steps maintain *)
        ignore
          (Update_queue.interference !q (Rng.int rng n_sources)
             ~col:(Rng.int rng 3)));
    check_state ~ctx !q
  done

let test_model () = for seed = 1 to 20 do run_model seed done

(* ————— scale: one correction's allocation ————— *)

let view3 = Chain.view ~n:3 ()

let update ~seq k =
  { Message.txn = { Message.source = 0; seq };
    delta = Delta.insertion (Chain.tuple ~key:k ~a:k ~b:k);
    occurred_at = 0.; global = None }

(* Minor words of one correction of a one-tuple TempView at source 1
   against [n] queued updates from source 0, each with its own join
   value. The first correction builds the index (O(n), once per
   backlog); the one measured follows one more append, as in a running
   warehouse. *)
let correction_words n =
  let q = Update_queue.create () in
  for k = 0 to n - 1 do
    ignore (Update_queue.append q (update ~seq:k k) ~arrived_at:0.)
  done;
  let temp =
    { Partial.lo = 1; hi = 1; data = Delta.insertion (Chain.tuple ~key:0 ~a:7 ~b:0) }
  in
  let answer = { Partial.lo = 0; hi = 1; data = Delta.empty () } in
  let correct () =
    Update_queue.correct q view3 ~source:0 ~extras:[] ~answer ~temp
  in
  ignore (correct ());
  ignore (Update_queue.append q (update ~seq:n n) ~arrived_at:0.);
  let before = Gc.minor_words () in
  let corrected = correct () in
  let after = Gc.minor_words () in
  Alcotest.(check int)
    (Printf.sprintf "%d queued: one interfering row subtracted" n)
    1 (Partial.cardinal corrected);
  after -. before

let test_scale () =
  let small = correction_words 50 and large = correction_words 1000 in
  Alcotest.(check bool)
    (Printf.sprintf
       "minor words per correction: %.0f at 1000 queued within 2x of %.0f \
        at 50"
       large small)
    true
    (large <= 2. *. small)

let suite =
  [ Alcotest.test_case "queue model: counts and indexes ≡ Delta.sum" `Quick
      test_model;
    Alcotest.test_case "correction cost independent of the backlog" `Quick
      test_scale ]
