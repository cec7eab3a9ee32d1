(* Behaviour pin for the SWEEP family. Every preset runs a fixed set of
   seeded scenarios — the concurrent, chaos, flash-crowd and self-maint
   presets plus the seeded warehouse-crash schedule of the recovery
   suite — and three facts per run are compared against digests
   recorded from the original per-variant implementations:

   - the install sequence: per install, the incorporated txn ids and the
     canonical (sorted) view delta;
   - every Metrics.fields value except the wall-clock [recovery_seconds]
     and the encoding-dependent [checkpoint_bytes], plus the simulator's
     event count and final sim time;
   - the checker's verdict.

   Any change in message order, compensation, parking, batching or
   install grouping moves at least one digest. *)

open Repro_relational
open Repro_warehouse
open Repro_consistency
open Repro_harness
module Fault = Repro_sim.Fault

let algorithms =
  [ ("sweep", (module Sweep : Algorithm.S));
    ("naive", (module Naive : Algorithm.S));
    ("sweep-global", (module Sweep_global : Algorithm.S));
    ("sweep-batched", (module Sweep_batched : Algorithm.S));
    ("sweep-parallel", (module Sweep_parallel : Algorithm.S));
    ("sweep-pipelined", (module Sweep_pipelined : Algorithm.S)) ]

let preset name =
  match Scenario.find_preset name with
  | Some s -> s
  | None -> Alcotest.failf "unknown scenario preset %s" name

let scenarios =
  List.map
    (fun name -> (name, fun seed -> { (preset name) with Scenario.seed }))
    [ "concurrent"; "chaos"; "flash-crowd"; "self-maint" ]
  @ [ ( "crashy",
        fun seed ->
          let f = Test_recovery.random_recovery_schedule seed in
          Test_recovery.crashy_scenario ~wh_crashes:f.Fault.wh_crashes
            ~crashes:f.Fault.crashes ~link:f.Fault.link seed ) ]

let seeds = [ 1; 2; 3; 4; 5 ]
let short s = String.sub (Digest.to_hex (Digest.string s)) 0 16

(* Run one scenario, digesting installs as they happen. Install
   listeners fire once per live install (never during WAL replay), the
   delta listener just before the txn-id listener of the same install. *)
let observe scenario algorithm =
  let installs = Buffer.create 4096 in
  let on_node node =
    let last = ref (Delta.empty ()) in
    Node.add_install_listener node (fun d -> last := d);
    Node.add_install_txns_listener node (fun ids ->
        List.iter
          (fun (id : Repro_protocol.Message.txn_id) ->
            Printf.bprintf installs "%d.%d," id.source id.seq)
          ids;
        Buffer.add_char installs '|';
        List.iter
          (fun (tup, c) ->
            Printf.bprintf installs "%s:%d;" (Tuple.to_string tup) c)
          (Delta.to_sorted_list !last);
        Buffer.add_char installs '\n')
  in
  let r = Experiment.run ~on_node scenario algorithm in
  let metrics = Buffer.create 1024 in
  List.iter
    (fun (name, v) ->
      match (name, v) with
      | ("recovery_seconds" | "checkpoint_bytes"), _ -> ()
      | _, `Int i -> Printf.bprintf metrics "%s=%d;" name i
      | _, `Float f -> Printf.bprintf metrics "%s=%h;" name f)
    (Metrics.fields r.Experiment.metrics);
  Printf.bprintf metrics "events=%d;sim_time=%h" r.Experiment.events
    r.Experiment.sim_time;
  ( short (Buffer.contents installs),
    short (Buffer.contents metrics),
    Checker.verdict_to_string r.Experiment.verdict.Checker.verdict )

(* (algorithm, scenario, seed, installs digest, metrics digest, verdict) *)
let expected : (string * string * int * string * string * string) list =
  [ ("sweep", "concurrent", 1, "48378462d9760834", "633d35abff75d13c", "complete");
    ("sweep", "concurrent", 2, "622fe68f3310f191", "060e0234ab2ec6a7", "complete");
    ("sweep", "concurrent", 3, "bd1fee9808473887", "648deb355f4911e5", "complete");
    ("sweep", "concurrent", 4, "1f814d40de5eeaa0", "4b6f6145f0a447b7", "complete");
    ("sweep", "concurrent", 5, "65c822163d294a26", "13974a4992346174", "complete");
    ("sweep", "chaos", 1, "28c5670f7cba015c", "cb0ac13c02ee404f", "strong");
    ("sweep", "chaos", 2, "6bf285dea7ba7040", "9baa3829bc81b25d", "strong");
    ("sweep", "chaos", 3, "957cb2f7101a920a", "112e7098690eeb9b", "strong");
    ("sweep", "chaos", 4, "38e36a337be542ab", "6573fe1a555521f7", "strong");
    ("sweep", "chaos", 5, "6fbf898d156ac320", "27334839faf7dafe", "strong");
    ("sweep", "flash-crowd", 1, "63474b9263a1c22a", "331594fab4bf368b", "complete");
    ("sweep", "flash-crowd", 2, "17c57f9bec2356b4", "15e5c16baa03d117", "complete");
    ("sweep", "flash-crowd", 3, "95c8c2e9902ac8ac", "0a4344eb8428e39e", "strong");
    ("sweep", "flash-crowd", 4, "1a9a9da07954ce65", "f22390c68314f533", "strong");
    ("sweep", "flash-crowd", 5, "a5d5c5fbc11751e2", "9c009e956329b6ee", "complete");
    ("sweep", "self-maint", 1, "69721f6714fb354d", "f28e064b06c4a317", "complete");
    ("sweep", "self-maint", 2, "3d222806f96bcf62", "1fac7d1a0f016135", "complete");
    ("sweep", "self-maint", 3, "1819489b8eaeff35", "d9703884ae036420", "complete");
    ("sweep", "self-maint", 4, "b5ba32fb1456800f", "b41a35f7adb19f1c", "complete");
    ("sweep", "self-maint", 5, "5a4909abed0729e5", "7aa56e0bb31103d6", "complete");
    ("sweep", "crashy", 1, "a636bfb454984b76", "a7f67838bceba6c9", "complete");
    ("sweep", "crashy", 2, "9ffe6d69eae37833", "69fde9f8aa94bf2a", "complete");
    ("sweep", "crashy", 3, "05761ddd6c47027a", "995629a03aa3faf2", "complete");
    ("sweep", "crashy", 4, "297c91a474b72d92", "4be92529d0945f06", "complete");
    ("sweep", "crashy", 5, "fb7bac14a5de220e", "70be01403645445b", "complete");
    ("naive", "concurrent", 1, "a0e362749f9fbb10", "ebe056965f686bac", "INCONSISTENT");
    ("naive", "concurrent", 2, "b29c94ebcd682157", "1a99226a4c92370c", "INCONSISTENT");
    ("naive", "concurrent", 3, "f0d5652986669baa", "ce7e0a847f8fb276", "INCONSISTENT");
    ("naive", "concurrent", 4, "43f481c921a32549", "c5467437d60c590d", "INCONSISTENT");
    ("naive", "concurrent", 5, "2adb6c3d077ec76e", "83c0a1c86258230c", "INCONSISTENT");
    ("naive", "chaos", 1, "eb671c65455a7f3c", "447e24582350f9c5", "INCONSISTENT");
    ("naive", "chaos", 2, "b4751d51370fba92", "53bc778161d6aaf4", "INCONSISTENT");
    ("naive", "chaos", 3, "af5fa4544b633653", "588894eeb86ff1f9", "INCONSISTENT");
    ("naive", "chaos", 4, "bfeda08f160eb649", "329045e6602bf951", "INCONSISTENT");
    ("naive", "chaos", 5, "bd590a24dbb6f276", "e43c47623a15c817", "INCONSISTENT");
    ("naive", "flash-crowd", 1, "852cce8e2ce3463b", "628ac20d434263fa", "INCONSISTENT");
    ("naive", "flash-crowd", 2, "184ca23c1c4d3fee", "5a3a115e86c7ce67", "INCONSISTENT");
    ("naive", "flash-crowd", 3, "62cf1f1983b47900", "60a6ff7a31509e6a", "INCONSISTENT");
    ("naive", "flash-crowd", 4, "2305e226b368937c", "463648d8d3041693", "INCONSISTENT");
    ("naive", "flash-crowd", 5, "eaffa89c57c32a03", "e4ecd476e2ebf75a", "INCONSISTENT");
    ("naive", "self-maint", 1, "98761d4c925abd1d", "3829175b235c4c29", "INCONSISTENT");
    ("naive", "self-maint", 2, "7332396e9853a4a9", "a083bf38205126f5", "INCONSISTENT");
    ("naive", "self-maint", 3, "98b0749773e367b3", "ae5e42f2d241ae12", "INCONSISTENT");
    ("naive", "self-maint", 4, "8f1efe4167c965bd", "79788a84971ef87c", "INCONSISTENT");
    ("naive", "self-maint", 5, "b690ee8c8a19e3ce", "957cac9c4a08eb44", "INCONSISTENT");
    ("naive", "crashy", 1, "626ce16956747791", "d1686a5eb858c682", "INCONSISTENT");
    ("naive", "crashy", 2, "5ec9bf3d6da328ba", "efc8f43f7abafcae", "INCONSISTENT");
    ("naive", "crashy", 3, "23f87d4b6d0b8638", "74bfcd96208f13c6", "INCONSISTENT");
    ("naive", "crashy", 4, "976fca8c48473dc4", "9f3fba5d54a1cfab", "INCONSISTENT");
    ("naive", "crashy", 5, "3e287a47c9c34408", "9d971ec43eea721f", "INCONSISTENT");
    ("sweep-global", "concurrent", 1, "48378462d9760834", "633d35abff75d13c", "complete");
    ("sweep-global", "concurrent", 2, "622fe68f3310f191", "060e0234ab2ec6a7", "complete");
    ("sweep-global", "concurrent", 3, "bd1fee9808473887", "648deb355f4911e5", "complete");
    ("sweep-global", "concurrent", 4, "1f814d40de5eeaa0", "4b6f6145f0a447b7", "complete");
    ("sweep-global", "concurrent", 5, "65c822163d294a26", "13974a4992346174", "complete");
    ("sweep-global", "chaos", 1, "28c5670f7cba015c", "cb0ac13c02ee404f", "strong");
    ("sweep-global", "chaos", 2, "6bf285dea7ba7040", "9baa3829bc81b25d", "strong");
    ("sweep-global", "chaos", 3, "957cb2f7101a920a", "112e7098690eeb9b", "strong");
    ("sweep-global", "chaos", 4, "38e36a337be542ab", "6573fe1a555521f7", "strong");
    ("sweep-global", "chaos", 5, "6fbf898d156ac320", "27334839faf7dafe", "strong");
    ("sweep-global", "flash-crowd", 1, "63474b9263a1c22a", "331594fab4bf368b", "complete");
    ("sweep-global", "flash-crowd", 2, "17c57f9bec2356b4", "15e5c16baa03d117", "complete");
    ("sweep-global", "flash-crowd", 3, "95c8c2e9902ac8ac", "0a4344eb8428e39e", "strong");
    ("sweep-global", "flash-crowd", 4, "1a9a9da07954ce65", "f22390c68314f533", "strong");
    ("sweep-global", "flash-crowd", 5, "a5d5c5fbc11751e2", "9c009e956329b6ee", "complete");
    ("sweep-global", "self-maint", 1, "78f41f623b267f4d", "08f6492e6b3bcf36", "complete");
    ("sweep-global", "self-maint", 2, "2795b2bb953b4e6c", "5a22d28d57d7bf3f", "complete");
    ("sweep-global", "self-maint", 3, "2b9be735038ba917", "1116ec162066d8ba", "complete");
    ("sweep-global", "self-maint", 4, "f27c7b7acc9b13cf", "761f740df83d01df", "complete");
    ("sweep-global", "self-maint", 5, "0d04922a2125192a", "5f0789fcd03e626d", "complete");
    ("sweep-global", "crashy", 1, "a636bfb454984b76", "a7f67838bceba6c9", "complete");
    ("sweep-global", "crashy", 2, "9ffe6d69eae37833", "69fde9f8aa94bf2a", "complete");
    ("sweep-global", "crashy", 3, "05761ddd6c47027a", "995629a03aa3faf2", "complete");
    ("sweep-global", "crashy", 4, "297c91a474b72d92", "4be92529d0945f06", "complete");
    ("sweep-global", "crashy", 5, "fb7bac14a5de220e", "70be01403645445b", "complete");
    ("sweep-batched", "concurrent", 1, "b1d7bad7ea092645", "fe199797f29568d8", "complete");
    ("sweep-batched", "concurrent", 2, "7a5dbff8634ee752", "d2169c49f447199d", "complete");
    ("sweep-batched", "concurrent", 3, "9abfc59f6a0a6f46", "2cc3a27f5ca02211", "complete");
    ("sweep-batched", "concurrent", 4, "03016b04d190ce84", "206cb58fea0a9696", "complete");
    ("sweep-batched", "concurrent", 5, "b3ca6ed5dd5ce56e", "947d979b799987c8", "complete");
    ("sweep-batched", "chaos", 1, "413f9f0594bca22f", "6fe91ede77f34290", "strong");
    ("sweep-batched", "chaos", 2, "78ea950c59e52b65", "0224bb0efbd71c4f", "strong");
    ("sweep-batched", "chaos", 3, "2dc8d83b76c8b442", "8536ac757693f280", "complete");
    ("sweep-batched", "chaos", 4, "29f743e185c10f51", "673f2202cbf7ab02", "strong");
    ("sweep-batched", "chaos", 5, "a6c3025d68e7419c", "dfa07f765c6435f7", "strong");
    ("sweep-batched", "flash-crowd", 1, "0d49f04711a00703", "9393aef01c9e64a5", "strong");
    ("sweep-batched", "flash-crowd", 2, "fdd517b94f96801d", "2039e0197b8d2813", "strong");
    ("sweep-batched", "flash-crowd", 3, "c20c65c492da2530", "1b970314d5548c01", "strong");
    ("sweep-batched", "flash-crowd", 4, "e4da6c01e96f2b7a", "28263f870cbe924d", "strong");
    ("sweep-batched", "flash-crowd", 5, "cd49700010e75247", "3c230c1df9f61336", "complete");
    ("sweep-batched", "self-maint", 1, "69721f6714fb354d", "f6236f30fe999250", "complete");
    ("sweep-batched", "self-maint", 2, "3d222806f96bcf62", "04c909535e1c1f14", "complete");
    ("sweep-batched", "self-maint", 3, "1819489b8eaeff35", "6244fcaf15bc984f", "complete");
    ("sweep-batched", "self-maint", 4, "b5ba32fb1456800f", "025e9db30d1512b2", "complete");
    ("sweep-batched", "self-maint", 5, "5a4909abed0729e5", "416534b5ad70398a", "complete");
    ("sweep-batched", "crashy", 1, "650da2883b5637af", "77e76b737b691635", "complete");
    ("sweep-batched", "crashy", 2, "d71daf91e52063c9", "5cfb33f6faadcc57", "complete");
    ("sweep-batched", "crashy", 3, "67457829f1ffd7fc", "844b7914a2de6fb3", "complete");
    ("sweep-batched", "crashy", 4, "8202485dcf804547", "da479ff29f220082", "complete");
    ("sweep-batched", "crashy", 5, "8f5a65db34cf6723", "11d8cc4efb007eb1", "complete");
    ("sweep-parallel", "concurrent", 1, "5cb8eb4bf376f786", "c8fafcfdef35ffb7", "complete");
    ("sweep-parallel", "concurrent", 2, "12fbe4b51f608432", "3af539030816ace8", "complete");
    ("sweep-parallel", "concurrent", 3, "efd03b32b58b1c22", "fee442c0f9c40075", "complete");
    ("sweep-parallel", "concurrent", 4, "5908536d0053800f", "59ef8b36280ccab6", "complete");
    ("sweep-parallel", "concurrent", 5, "e8a2c82012549ac8", "c728d13d196db6ba", "complete");
    ("sweep-parallel", "chaos", 1, "175641325ab2df13", "8cdf823871fe0115", "complete");
    ("sweep-parallel", "chaos", 2, "d24646391de6e02d", "12e71173bd534c75", "complete");
    ("sweep-parallel", "chaos", 3, "76c871b3db79aeda", "5320f11915c1719e", "complete");
    ("sweep-parallel", "chaos", 4, "7c1c10e73335e897", "5902131c58f99054", "complete");
    ("sweep-parallel", "chaos", 5, "4eed7afd9898ce91", "71adb7fa1fb18caf", "complete");
    ("sweep-parallel", "flash-crowd", 1, "b3c86bec578c33e6", "cd7c13a63637d266", "complete");
    ("sweep-parallel", "flash-crowd", 2, "93add1519109e644", "a0c34f040063ea48", "complete");
    ("sweep-parallel", "flash-crowd", 3, "e0703146f38a433e", "d5418f0628832c32", "complete");
    ("sweep-parallel", "flash-crowd", 4, "784278daa7440851", "52860fd0c28bae1f", "complete");
    ("sweep-parallel", "flash-crowd", 5, "189bd4bb287c71b7", "2fa54aa6a1ac6e33", "complete");
    ("sweep-parallel", "self-maint", 1, "70d4f5fa96f6ebe3", "c19b9b3141f036a4", "complete");
    ("sweep-parallel", "self-maint", 2, "b584e5dbcbacb796", "f8234bf28e6b4beb", "complete");
    ("sweep-parallel", "self-maint", 3, "8dde987073b188f4", "858d2ae49dbd173e", "complete");
    ("sweep-parallel", "self-maint", 4, "f61c05a9d41a9687", "dbf80b10087b3938", "complete");
    ("sweep-parallel", "self-maint", 5, "13e6800137799e39", "0150875022d7c25f", "complete");
    ("sweep-parallel", "crashy", 1, "a636bfb454984b76", "0ee5c5c22bc00eab", "complete");
    ("sweep-parallel", "crashy", 2, "9ffe6d69eae37833", "792a1708c9e6354f", "complete");
    ("sweep-parallel", "crashy", 3, "05761ddd6c47027a", "c725b7ed77e8d92d", "complete");
    ("sweep-parallel", "crashy", 4, "297c91a474b72d92", "4ff132324ed980e3", "complete");
    ("sweep-parallel", "crashy", 5, "fb7bac14a5de220e", "8b8f40fc0e01e5ea", "complete");
    ("sweep-pipelined", "concurrent", 1, "139a132f8655f3f4", "a035a01b99721163", "complete");
    ("sweep-pipelined", "concurrent", 2, "13c563be1deabdc2", "7162dbb5e75c41f3", "complete");
    ("sweep-pipelined", "concurrent", 3, "e0f93ff2742fd32c", "9c98533dca1d1e02", "complete");
    ("sweep-pipelined", "concurrent", 4, "ce86bcaab065e3dd", "ee59a26c4974a743", "complete");
    ("sweep-pipelined", "concurrent", 5, "783cf4cbff06a146", "07377834ee508b16", "complete");
    ("sweep-pipelined", "chaos", 1, "b35a2a31cac87408", "73495348f76da59a", "complete");
    ("sweep-pipelined", "chaos", 2, "beb733422bff7258", "f8018cc271ada952", "complete");
    ("sweep-pipelined", "chaos", 3, "72fb892a6d6c7f3d", "113e44b62c359a74", "complete");
    ("sweep-pipelined", "chaos", 4, "95068a9acec6f401", "9d53d0039f8c81a7", "complete");
    ("sweep-pipelined", "chaos", 5, "42ea60447a971f81", "ed4289564a8b4bb1", "complete");
    ("sweep-pipelined", "flash-crowd", 1, "003e1f2df78b14d0", "02ae920f3873b182", "complete");
    ("sweep-pipelined", "flash-crowd", 2, "a35a56abd9437187", "b88e3869755d65a2", "complete");
    ("sweep-pipelined", "flash-crowd", 3, "d1e2f1c2c20554af", "b6593eeb79a478f6", "complete");
    ("sweep-pipelined", "flash-crowd", 4, "e7fa90ea43703d68", "df3494efe4eea73c", "complete");
    ("sweep-pipelined", "flash-crowd", 5, "828b753b428bfd92", "2515f1e9d76301d6", "complete");
    ("sweep-pipelined", "self-maint", 1, "54b2ef02933cd381", "ae6539f8ccde3624", "complete");
    ("sweep-pipelined", "self-maint", 2, "b219a87bef26221f", "92c889773f0e5d54", "complete");
    ("sweep-pipelined", "self-maint", 3, "10db8b2df7ae9538", "4993d6bb12139766", "complete");
    ("sweep-pipelined", "self-maint", 4, "0c4795c0fec150ca", "58c688e909b367d3", "complete");
    ("sweep-pipelined", "self-maint", 5, "fc66a5cbcbf6275b", "7942d198e443e875", "complete");
    ("sweep-pipelined", "crashy", 1, "0b5f5f173d0f8fa7", "b29f1eb6795b915c", "complete");
    ("sweep-pipelined", "crashy", 2, "f072ea0235441596", "740cc22218465d88", "complete");
    ("sweep-pipelined", "crashy", 3, "bd548f1b83a058e8", "aac17f189e1fe7b2", "complete");
    ("sweep-pipelined", "crashy", 4, "f1ad442f9add8849", "190ba23ac675c4ff", "complete");
    ("sweep-pipelined", "crashy", 5, "650e59c7b953ec85", "03cd660e8e6bd07a", "complete") ]

let test_algorithm (name, algorithm) () =
  List.iter
    (fun (scenario_name, scenario) ->
      List.iter
        (fun seed ->
          let installs, metrics, verdict =
            observe (scenario (Int64.of_int seed)) algorithm
          in
          let line =
            Printf.sprintf "(%S, %S, %d, %S, %S, %S);" name scenario_name seed
              installs metrics verdict
          in
          match
            List.find_opt
              (fun (a, s, n, _, _, _) ->
                a = name && s = scenario_name && n = seed)
              expected
          with
          | None -> Alcotest.failf "no pinned digest; actual: %s" line
          | Some (_, _, _, i, m, v) ->
              let ctx =
                Printf.sprintf "%s %s seed %d" name scenario_name seed
              in
              Alcotest.(check string) (ctx ^ ": install sequence") i installs;
              Alcotest.(check string) (ctx ^ ": metrics") m metrics;
              Alcotest.(check string) (ctx ^ ": verdict") v verdict)
        seeds)
    scenarios

let suite =
  List.map
    (fun ((name, _) as a) ->
      Alcotest.test_case (name ^ ": pinned installs, metrics, verdicts") `Quick
        (test_algorithm a))
    algorithms
