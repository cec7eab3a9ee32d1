(* Strobe's flush, as one install delta built by a key-delete overlay
   (Keys.overlay) over the live view: a differential against the
   copy-scan-diff flush it replaced (strobe_reference.ml) over random
   action lists, and an allocation scale test showing a flush costs the
   same at 500 and at 5,000 view tuples. *)

open Repro_relational
open Repro_sim
open Repro_protocol
open Repro_warehouse
open Repro_workload
module Ref = Strobe_reference

let view = Chain.view ~n:3 ()

(* A full-width 3-chain tuple that satisfies the join; keys and join
   values come from small domains so keys collide across tuples. *)
let random_full rng =
  let v () = Rng.int rng 3 in
  let b0 = v () and b1 = v () in
  Array.concat
    [ Chain.tuple ~key:(Rng.int rng 5) ~a:(v ()) ~b:b0;
      Chain.tuple ~key:(Rng.int rng 5) ~a:b0 ~b:b1;
      Chain.tuple ~key:(Rng.int rng 5) ~a:b1 ~b:(v ()) ]

let project full =
  Algebra.select_project view { Partial.lo = 0; hi = 2; data = full }

(* Strobe.flush's use of the overlay, over the same action type. *)
let overlay_flush idx ~contents actions =
  let o = Keys.overlay idx ~contents () in
  List.iter
    (function
      | Ref.Del { source; key } -> Keys.delete_key o ~source ~key
      | Ref.Ins { full } ->
          Delta.iter
            (fun tup c -> if c > 0 then Keys.insert_once o tup)
            (project full))
    actions;
  Keys.commit o

let pick rng = function
  | [] -> None
  | l -> Some (List.nth l (Rng.int rng (List.length l)))

(* One action list: key-deletes that hit view tuples, hit tuples an
   earlier insert of the same list added, or name an absent key; inserts
   of fresh tuples, of tuples already derived and of one tuple twice. *)
let random_actions rng ~contents ~fulls =
  let in_view = List.map fst (Bag.to_sorted_list contents) in
  let inserted = ref [] in
  List.init (1 + Rng.int rng 8) (fun _ ->
      let source = Rng.int rng 3 in
      let del_key tup =
        Ref.Del { source; key = Keys.view_tuple_key view source tup }
      in
      match Rng.int rng 6 with
      | 0 | 1 -> (
          match pick rng in_view with
          | Some tup -> del_key tup
          | None -> Ref.Del { source; key = Tuple.ints [ 99 ] })
      | 2 -> (
          match pick rng !inserted with
          | Some tup -> del_key tup
          | None -> Ref.Del { source; key = Tuple.ints [ 98 ] })
      | 3 -> Ref.Del { source; key = Tuple.ints [ 90 + Rng.int rng 5 ] }
      | _ ->
          let full = Delta.empty () in
          for _ = 0 to Rng.int rng 3 do
            let f =
              match pick rng !fulls with
              | Some f when Rng.bool rng 0.4 -> f
              | _ -> random_full rng
            in
            fulls := f :: !fulls;
            Delta.add full f (1 + Rng.int rng 2)
          done;
          Delta.iter (fun tup _ -> inserted := tup :: !inserted) (project full);
          Ref.Ins { full })

let test_differential () =
  Rig.for_seeds 300 @@ fun seed ->
    let rng = Rng.create (Int64.of_int seed) in
    let fulls = ref (List.init 12 (fun _ -> random_full rng)) in
    let contents = Bag.create () in
    List.iter
      (fun f -> Bag.merge_into ~into:contents (project (Delta.insertion f)))
      !fulls;
    let idx = Keys.index view in
    for round = 1 to 6 do
      let actions = random_actions rng ~contents ~fulls in
      let expected = Ref.flush view ~contents actions in
      let got = overlay_flush idx ~contents actions in
      Alcotest.check Rig.delta
        (Printf.sprintf "seed %d flush %d: overlay = copy-scan-diff" seed round)
        expected got;
      Bag.merge_into ~into:contents got
    done

(* ————— cost independent of |V| ————— *)

(* Words allocated since [start_counting], which empties the minor heap
   and finishes pending major work first: a collection inside the window
   may count promoted words as major allocations before it counts them
   as promoted. *)
let allocated_words () =
  let minor, promoted, major = Gc.counters () in
  minor +. major -. promoted

let start_counting () =
  Gc.full_major ();
  allocated_words ()

(* Words allocated by one Strobe flush of one key-delete and one insert,
   driven through a node over a 2-chain view of [n] tuples: an insert
   from source 0 queries source 1, a delete from source 1 arrives while
   the query is out, and the answer empties the unanswered set. Two
   warm-up rounds build the key index first. *)
let flush_words n =
  let view = Chain.view ~n:2 () in
  let rel j =
    Relation.of_tuples
      (List.init n (fun i -> Chain.tuple ~key:i ~a:(if j = 0 then 0 else i) ~b:i))
  in
  let sources = [| rel 0; rel 1 |] in
  let engine = Engine.create ~seed:1L () in
  let qid = ref (-1) in
  let send _ = function
    | Message.Sweep_query { qid = q; _ } -> qid := q
    | Message.Fetch _ | Message.Eca_query _ -> ()
  in
  let node =
    Node.create engine ~view ~algorithm:(module Strobe : Algorithm.S) ~send
      ~init:(Algebra.eval view (fun j -> sources.(j)))
      ~record_history:false ()
  in
  let seq = Array.make 2 0 in
  let notice source delta =
    let txn = { Message.source; seq = seq.(source) } in
    seq.(source) <- seq.(source) + 1;
    Node.deliver node
      (Message.Update_notice
         { Message.txn; delta; occurred_at = 0.; global = None })
  in
  let round k =
    let fresh = Chain.tuple ~key:(n + k) ~a:0 ~b:k in
    notice 0 (Delta.insertion fresh);
    let old = n - 1 - k in
    notice 1 (Delta.deletion (Chain.tuple ~key:old ~a:old ~b:old));
    Node.deliver node
      (Message.Answer
         { qid = !qid; source = 1;
           partial =
             { Partial.lo = 0; hi = 1;
               data =
                 Delta.insertion
                   (Tuple.concat fresh (Chain.tuple ~key:k ~a:k ~b:k)) } })
  in
  round 0;
  round 1;
  let before = start_counting () in
  round 2;
  let after = allocated_words () in
  Alcotest.(check int)
    (Printf.sprintf "|V| = %d: three rounds of one delete, one insert" n)
    n
    (Bag.cardinal (Node.view_contents node));
  after -. before

let test_scale () =
  let small = flush_words 500 and large = flush_words 5000 in
  Alcotest.(check bool)
    (Printf.sprintf
       "words per one-delete, one-insert flush: %.0f at 5000 view tuples \
        within 2x of %.0f at 500"
       large small)
    true
    (large <= 2. *. small)

let suite =
  [ Alcotest.test_case "strobe flush: overlay = copy-scan-diff reference" `Quick
      test_differential;
    Alcotest.test_case "strobe flush: cost independent of |V|" `Quick test_scale ]
