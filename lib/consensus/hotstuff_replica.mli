(** A linear, leader-aggregated three-phase replica core in the
    HotStuff/PoE lineage (Yin et al., PODC '19; Gupta et al.'s
    Proof-of-Execution), grown behind the same pure-state-machine
    discipline as {!Pbft_replica}: all I/O is delegated to the caller
    through {!Action.t} lists, and the core slots into the unified
    {!Core.CORE} packed-module API unchanged.

    {2 Phase invariants}

    Each sequence number runs three phases.  The leader broadcasts one
    [Hs_proposal]; every backup answers each phase with one [Hs_vote]
    {e sent to the leader only}; the leader aggregates [2f + 1] distinct
    matching votes ({!Config.qc_quorum}, its own included) into an
    [Hs_qc] certificate — standing in for a threshold signature — and
    broadcasts it, driving the next phase.  The phase-3 certificate
    commits the slot.  Per decision that is [O(n)] messages against
    PBFT's two all-to-all [O(n^2)] rounds, at the cost of more one-way
    hops before commit.

    Invariants the implementation maintains:

    - {b Vote monotonicity}: a replica's highest vote never exceeds its
      highest certificate plus one ([voted <= qc + 1]); phase [p + 1] is
      only ever voted against a valid phase-[p] certificate (phase 1
      against the proposal itself).
    - {b Certificate uniqueness}: votes pool by [(phase, digest)], so an
      equivocating leader splits its voters and at most one digest can
      reach [2f + 1] per slot ([2 * (2f + 1) > n + 1] whenever
      [f >= 1]); conflicting proposals are counted as equivocation
      evidence and dropped.
    - {b In-order execution}: slots certify out of order (the window is
      {!Config.t.high_water_mark} deep), [Execute] actions are emitted
      in strict sequence order, gap-free from the last stable
      checkpoint.
    - {b Undersized certificates are ignored}: an [Hs_qc] naming fewer
      than [2f + 1] distinct senders is dropped at every receiver.

    {2 Pacemaker contract}

    Leader rotation is demand-driven, not round-driven: the core runs the
    [View_change]/[New_view] sub-protocol of {!Replica_log} (the one
    {!Pbft_replica} runs, with its spam rate limits, surfaced through
    {!vc_spam_suppressed}) and relies on the hosting system's demand
    timer as its pacemaker.  The host escalates exactly as for PBFT —
    first {!nudge} (vote/certificate retransmission), then
    {!suspect_primary} (depose the leader of the current view), with
    {!view_change_retransmit} keeping a pending view change alive under
    loss.  A view change restarts every re-proposed slot from phase 1 in
    the new view; the lock carried by the view-change messages is the
    phase-1 certificate (any committed slot's phase-3 quorum intersects
    every phase-1 quorum, so a locked batch is always re-proposed).
    This makes leader failure the {e expensive} path — the asymmetry the
    [byzantine] bench figure measures.

    This module holds only the proposal / vote / QC phases and their
    retransmission ({!nudge}: a backup re-sends its current-phase vote,
    drawing the leader's certificate echo; the leader re-broadcasts its
    proposal and highest certificate).  Execution hand-off,
    checkpointing, garbage collection, {!stable_certificate} and
    {!install_checkpoint} are the {!Replica_log} envelope shared with
    {!Pbft_replica}, so durable backends and checkpoint-certificate state
    transfer work unmodified. *)

type t

include Replica_log.REPLICA with type t := t
