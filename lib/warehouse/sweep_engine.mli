(** The one ViewChange state machine behind the SWEEP family.

    The paper has a single ViewChange procedure (Fig. 4); every variant
    here is that procedure with a different shape, so each is a preset of
    this engine rather than a state machine of its own:

    - a {e batch} is the work one install covers: one queued update, or
      up to [batch_max] of them coalesced into net per-source deltas D_i,
      each swept as one {e leg} (ascending source order);
    - a leg runs as one {e frame} (left sweep, then right sweep) or, when
      [split], as a left and a right frame in parallel whose partials are
      glued by {!Repro_relational.Algebra.merge_overlap} (§5.3);
    - up to [window] batches are in flight at once (pipelining, §5.3);
      they install strictly in delivery order.

    Every answer goes through one error-correction rule. An answer from
    source [j] to a frame of leg [src] in batch [b] reflects the source's
    live state, so the engine subtracts [ΔR_j ⋈ TempView] for

    - the updates from [j] still queued (paper §4, by FIFO),
    - the updates from [j] in batches delivered after [b] and already in
      flight (they serialize after [b]), and
    - [b]'s own combined D_j when [j > src] (a right-leg source must
      contribute its pre-batch state — DESIGN.md §10).

    With one update per batch and one batch in flight only the first
    term is ever non-empty, which is SWEEP's rule. *)

(** When a finished batch reaches the view. *)
type install =
  | Immediate  (** one view-state transition per batch *)
  | Global_txn
      (** buffer finished batches while any global (type-3) transaction
          has parts outstanding, and install the buffer as one transition
          once none is open — no state exposes a partial transaction *)

type preset = {
  name : string;
  compensate : bool;
      (** apply §4's on-line error correction to answers (the naive
          baseline says no — that is its entire difference from SWEEP) *)
  local_answers : bool;
      (** answer legs from the aux store when it can (DESIGN.md §14).
          Sound only with one batch in flight and [Immediate] installs:
          the projections advance at install time, so a finished but
          uninstalled delta would be visible to neither the projections
          nor the queue scan. *)
  batch_max : int option;
      (** [None]: each batch is one update, swept as delivered. [Some k]:
          up to [k] queued updates coalesced into net per-source deltas;
          net-empty legs and net-empty corrections are skipped, and every
          batch is counted in [Metrics.batches]. [k < 1] is rejected at
          [create]. *)
  window : int;  (** batches in flight at once (>= 1) *)
  split : bool;  (** run each leg's left and right sweeps in parallel *)
  install : install;
}

(** The algorithm a preset describes. Presets with one frame in flight
    (window 1, not split) also run degraded mode (DESIGN.md §12): while
    circuit breakers are open they park updates whose legs need a dead
    source and abort a batch whose remaining legs do. The others stay
    blocked on the dead source until its breaker closes. *)
val algorithm : preset -> (module Algorithm.S)

(** Sources queried for an update at position [i] in a view over [n]
    sources, in sweep order: left of [i] nearest first, then right of
    [i]. *)
val order : n:int -> i:int -> int list
