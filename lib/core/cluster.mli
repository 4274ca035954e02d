(** The simulated ResilientDB deployment (see the module comment in the
    implementation for the full model description).

    One call to {!run} builds the cluster of {!Params.t}, drives the
    closed-loop client population through warmup and measurement windows
    under the deterministic discrete-event clock, and returns the measured
    {!Metrics.t}.  Runs are bit-reproducible for a given parameter set. *)

type t

val create : Params.t -> t
(** Builds replicas, network and client pool; validates the parameters. *)

val start : t -> unit
(** Seeds the client population (staggered over the first 50 ms). *)

val sim : t -> Rdb_des.Sim.t
(** The simulation clock, for callers that drive time manually. *)

val params : t -> Params.t
(** The (validated) parameter set this cluster was built from. *)

(** {2 External measurement and loop ownership}

    A shard deployment ([Rdb_shard.Deployment]) runs S clusters side by
    side, drives their clocks in lockstep itself, and owns the closed
    client loop — completed transactions may re-enter on a {e different}
    shard.  These hooks expose exactly the pieces {!measure} is built
    from; with no sink installed and a single caller-driven cluster the
    composition is bit-identical to {!measure}. *)

val set_completion_sink : t -> (int array -> unit) -> unit
(** Replace the closed-loop resubmission: freshly completed transaction
    ids are passed to the sink instead of being resubmitted locally.  The
    sink typically routes each replacement via {!submit_fresh} on some
    cluster of the deployment.  Installing a sink that immediately calls
    [submit_fresh t (Array.length fresh)] reproduces the classic loop
    bit-for-bit. *)

val submit_fresh : t -> int -> unit
(** Submit [k] brand-new transactions through the normal client path
    (submit-time recording, round-robin primary targeting,
    retransmission timers) — the replacement the closed loop would have
    made. *)

val next_txn : t -> int
(** The id the next fresh transaction will receive (ids are sequential),
    so a caller can associate protocol state with a transaction it is
    about to submit. *)

val set_measuring : t -> bool -> unit
(** Open/close the measurement window: while on, completions accumulate
    into throughput/latency counters ({!measure} flips this internally). *)

type snapshot
(** Cumulative counters (stage occupancy, CPU busy-time, network and
    ledger totals) at one instant; two of them bracket a window. *)

val snapshot : t -> snapshot

val metrics_between : t -> snapshot -> snapshot -> Metrics.t
(** The metrics of the window bracketed by two snapshots — the exact
    accounting {!measure} performs, for callers driving the clock
    themselves.  Latency and completion counters cover what
    {!set_measuring} gated in; call once per cluster, at the end (it also
    finalises observability output). *)

(** {2 Faults and recovery}

    The schedule in {!Params.t}[.nemesis] is installed by {!create}. *)

val current_view : t -> int
(** Highest view any replica has installed (0 until a view change). *)

val instance_views : t -> int array
(** Highest installed view of each consensus instance, observed
    cluster-wide (index = instance id; a single-element array for classic
    [instances = 1] deployments).  Lets tests assert that a nemesis
    {!Nemesis.fault.Crash_instance_primary} advanced {e only} the targeted
    instance's view. *)

val retransmissions : t -> int
(** Client request re-sends so far (see {!Params.t}[.client_timeout]). *)

val duplicate_completions : t -> int
(** Transactions that completed through more than one (view, seq) slot;
    each was counted exactly once towards throughput. *)

val total_completed : t -> int
(** Fresh transaction completions since [start] (warmup included). *)

val time_to_recovery : t -> float option
(** Seconds from the first nemesis-injected primary crash to the first
    completion decided in a later view; [None] before recovery (or when no
    primary crash was injected). *)

val state_transfers : t -> int
(** Checkpoint-driven state transfers that successfully installed a chain
    segment so far, cluster-wide (see {!Rdb_consensus.State_transfer}). *)

val time_to_catch_up : t -> float option
(** Seconds from the first State_request broadcast to the first successful
    segment install; [None] while no state transfer has completed.  With
    one recovering replica this is its time-to-catch-up. *)

val ledger_gap : t -> int -> int
(** Ledger height of the healthiest replica minus replica [i]'s: the gap a
    state transfer would have to cover right now (0 = caught up). *)

val ledger_height : t -> int -> int
(** Highest block sequence in replica [i]'s ledger. *)

val verify_cache_stats : t -> int * int
(** Aggregate (hits, misses) over every replica's verification and digest
    memo tables ({!Params.t}[.verify_sharing]); (0, 0) when sharing is off
    or nothing was probed. *)

val rejected_forgeries : t -> int
(** Tampered messages (forged MAC or corrupted batch digest, from a
    {!Nemesis.fault.Corrupt_mac} / {!Nemesis.fault.Corrupt_digest}
    attacker) rejected at receivers so far, cluster-wide.  A rejected
    forgery costs the receiver a full verification, is never admitted to
    the verify-sharing caches, and never reaches a consensus core. *)

val equivocations_detected : t -> int
(** Conflicting proposals observed for an occupied slot — evidence of an
    equivocating primary ({!Nemesis.fault.Equivocate}) — summed over every
    replica's consensus core. *)

val vc_spam_suppressed : t -> int
(** View-change messages discarded by the cores' per-sender rate limit
    ({!Nemesis.fault.View_change_spam}), summed cluster-wide. *)

val suppressed_sends : t -> int
(** Outbound messages a byzantine interposition silently swallowed
    ({!Nemesis.fault.Silence}): sent by the node's stack, never put on the
    wire. *)

(** {2 Observability}

    When {!Params.obs_enabled} holds (the [trace] flag or a [trace_out] /
    [trace_csv] destination), the cluster is built with stage/CPU probes, a
    periodic time-series sampler and a Chrome [trace_event] collector; the
    run's {!Metrics.t} then carries the per-stage latency breakdown and the
    per-transaction span phases.  All of it only {e reads} simulation state,
    so every metric is identical with tracing on or off. *)

val trace_json : t -> string option
(** The Chrome [trace_event] JSON collected so far ([None] when tracing is
    off).  Load it in [chrome://tracing] or Perfetto: one process per
    replica, one track per pipeline stage, counter tracks for queue depths
    and instant events for faults and view changes. *)

val check_safety : t -> (unit, string) result
(** Cross-replica agreement: every retained ledger verifies, and no two
    replicas committed different batches at the same sequence number. *)

val measure : t -> Metrics.t
(** Drive a freshly created (not yet started) cluster through its warmup
    and measurement windows and report; the cluster stays inspectable
    afterwards (e.g. {!verify_cache_stats}, {!check_safety}). *)

val run : Params.t -> Metrics.t
(** [create] + [start] + run to [warmup + measure], returning the metrics
    of the measurement window. *)

(** {2 Bounded (campaign) runs}

    A wedged deployment — say a view-change storm under heavy loss — keeps
    scheduling retransmission and timer events forever, so an unbounded run
    only terminates because simulated time does.  The fault-campaign
    harness instead gives each run a hard {e event} budget: when the budget
    is spent with live work remaining, the run stops immediately with
    {!completion.Event_budget_exhausted} and whatever metrics had
    accumulated, instead of burning wall-clock on a run that will be
    classified wedged anyway.  Budgets are deterministic (unlike wall-clock
    timeouts), so budgeted campaigns stay bit-reproducible. *)

type completion =
  | Completed  (** the run reached its [warmup + measure] horizon *)
  | Event_budget_exhausted
      (** the event budget ran out first: the run is wedged or pathologically
          event-dense; metrics cover only the progress made *)

val measure_bounded : ?max_events:int -> t -> Metrics.t * completion
(** {!measure} under an event budget.  Without [max_events] this is exactly
    {!measure} (and always [Completed]). *)

val run_bounded : ?max_events:int -> Params.t -> Metrics.t * completion
(** [create] + {!measure_bounded}. *)

val close : t -> unit
(** Release OS resources held by durable ledger backends (WAL/B-tree file
    handles); a no-op for in-memory deployments.  Call after the last
    inspection of a durable cluster — campaign harnesses run hundreds of
    clusters per process. *)
