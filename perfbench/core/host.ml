(* Host-speed probe. The benchmark runs on shared machines whose speed
   drifts by tens of percent over minutes: on the 2-core host this
   benchmark was written on, same-seed runs of [steady] a minute apart
   differed by 40% in every timing at once, with no CPU steal — no
   in-run median removes that. So each timed run is preceded by this
   fixed kernel (benchmark code, which no change to the program can
   speed up or slow down), and timings are reported in reference
   seconds: measured seconds x [reference_ns] / probe ns, the time the
   work would have taken on a host that runs the probe in
   [reference_ns]. The kernel mixes what the program spends its time
   on: allocation, structural hashing of small arrays and sorting. *)

let reference_ns = 7_500_000

let kernel () =
  let h = Hashtbl.create 1024 in
  let acc = ref 0 in
  for i = 0 to 15_000 do
    Hashtbl.replace h [| i land 4095; i * 7 land 1023; i |] i;
    let j = i / 2 in
    match Hashtbl.find_opt h [| j land 4095; j * 7 land 1023; j |] with
    | Some v -> acc := !acc + v
    | None -> ()
  done;
  let sorted = List.sort compare (List.init 12_000 (fun i -> i * 7919 mod 12_000)) in
  !acc + List.hd sorted

(* The factor that turns measured seconds into reference seconds: the
   median of three kernel timings, so one scheduling hiccup does not
   set it. *)
let probe () =
  let time () =
    let t0 = Clock.now_ns () in
    ignore (Sys.opaque_identity (kernel ()));
    Clock.now_ns () - t0
  in
  let a = time () and b = time () and c = time () in
  let median = max (min a b) (min (max a b) c) in
  float_of_int reference_ns /. float_of_int median
