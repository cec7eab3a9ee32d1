open Repro_relational
open Repro_sim
open Repro_protocol

type t = {
  engine : Engine.t;
  view : View_def.t;
  node_id : int;
  tbl : Base_table.t;
  strategy : Join_strategy.t;
  send : Message.to_warehouse -> unit;
  trace : Trace.t;
}

let create ?(strategy = Join_strategy.default) engine ~view ~id ~init ~send
    ~trace =
  if id < 0 || id >= View_def.n_sources view then
    invalid_arg "Source_node.create: id out of range";
  { engine; view; node_id = id;
    tbl = Base_table.create ~source:id ~view init;
    strategy; send; trace }

let id t = t.node_id
let table t = t.tbl
let strategy t = t.strategy

let who t = Printf.sprintf "source%d" t.node_id

(* One delta join leg, executed per the configured strategy. Probe
   covers every junction with at least one equality; the rare
   cross-product junction falls back to the generic hash join. Both
   paths are bag-identical (the strategy differential suite proves it). *)
let answer_leg t partial =
  let fallback () =
    Algebra.extend t.view partial
      ~with_relation:(t.node_id, Base_table.relation t.tbl)
  in
  match t.strategy with
  | Join_strategy.Pairwise -> fallback ()
  | Join_strategy.Probe -> (
      match
        Algebra.extend_with_probe t.view partial ~source:t.node_id
          ~probe:(fun ~col ~value -> Base_table.probe t.tbl ~col ~value)
      with
      | Some answer -> answer
      | None -> fallback ())

let local_update ?global t delta =
  let txn = Base_table.apply t.tbl delta in
  let now = Engine.now t.engine in
  Trace.emit t.trace ~time:now ~who:(who t) "apply %a = %a" Message.pp_txn_id
    txn Delta.pp delta;
  t.send
    (Message.Update_notice
       { txn; delta = Delta.copy delta; occurred_at = now; global });
  txn

let handle t msg =
  let now = Engine.now t.engine in
  match msg with
  | Message.Sweep_query { qid; target; partial } ->
      if target <> t.node_id then
        invalid_arg "Source_node.handle: sweep query misrouted";
      let answer = answer_leg t partial in
      Trace.emit t.trace ~time:now ~who:(who t) "query#%d %a -> %a" qid
        Partial.pp partial Partial.pp answer;
      t.send (Message.Answer { qid; source = t.node_id; partial = answer })
  | Message.Fetch { qid; target } ->
      if target <> t.node_id then
        invalid_arg "Source_node.handle: fetch misrouted";
      Trace.emit t.trace ~time:now ~who:(who t) "fetch#%d" qid;
      t.send
        (Message.Snapshot
           { qid; source = t.node_id;
             relation = Relation.copy (Base_table.relation t.tbl) })
  | Message.Eca_query _ ->
      invalid_arg "Source_node.handle: Eca_query sent to a distributed source"
