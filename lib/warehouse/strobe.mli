(** Strobe (Zhuge et al. 1996; paper §3).

    Multi-source, unique-key algorithm. Deletes are handled locally: a
    key-delete action is appended to the action list AL and registered
    against every in-flight query. Inserts trigger a full query across the
    other sources, evaluated *without* compensation; when the answer
    returns, the deletes collected during its evaluation are applied to it
    and an insert action is appended to AL. AL is applied to the
    materialized view — in one atomic batch, suppressing key duplicates —
    only when the unanswered-query set becomes empty. The batch is built
    as one delta over the live view by a {!Keys.overlay}, so a flush
    costs what AL touches, not the size of the view.

    That quiescence condition is Strobe's weakness: under sustained
    updates AL grows and the view goes stale without bound (our experiment
    E3). Consistency achieved is strong. *)

include Algorithm.S
