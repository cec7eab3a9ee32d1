open Repro_warehouse

(* [algorithm spans (module A)] behaves exactly as [A] and records a
   span around each handler and around the [send]/[install] closures
   it hands [A], so a handler's self time is the algorithm's own work
   (compensation, batching, queue handling, local answers). *)
let algorithm sp (module A : Algorithm.S) : (module Algorithm.S) =
  let on_update_id = Spans.intern sp "warehouse.on_update"
  and on_answer_id = Spans.intern sp "warehouse.on_answer"
  and snapshot_id = Spans.intern sp "warehouse.snapshot"
  and send_id = Spans.intern sp "warehouse.send"
  and install_id = Spans.intern sp "warehouse.install" in
  let wrap_ctx (ctx : Algorithm.ctx) =
    { ctx with
      Algorithm.send =
        (fun i msg ->
          let s = Spans.enter sp send_id in
          ctx.send i msg;
          Spans.leave sp s);
      install =
        (fun delta ~txns ->
          let s = Spans.enter sp install_id in
          ctx.install delta ~txns;
          Spans.leave sp s) }
  in
  (module struct
    type t = A.t

    let name = A.name
    let create ctx = A.create (wrap_ctx ctx)

    let on_update st (e : Update_queue.entry) =
      let s = Spans.enter sp on_update_id in
      Spans.set_txn sp s e.update.txn;
      A.on_update st e;
      Spans.leave sp s

    let on_answer st msg =
      let s = Spans.enter sp on_answer_id in
      A.on_answer st msg;
      Spans.leave sp s

    let on_source_down = A.on_source_down
    let on_source_up = A.on_source_up
    let idle = A.idle

    let snapshot st =
      let s = Spans.enter sp snapshot_id in
      let snap = A.snapshot st in
      Spans.leave sp s;
      snap

    let restore ctx snap = A.restore (wrap_ctx ctx) snap
  end)
