(** The PBFT replica state machine (Castro & Liskov, OSDI '99), as deployed
    inside ResilientDB.

    Pure core: all I/O is delegated to the caller through {!Action.t} lists.
    This module holds the three normal-case phases (Pre-prepare, Prepare,
    Commit) and their vote retransmission; the replication envelope around
    them — in-order execution hand-off, checkpoint garbage collection, and
    the view-change / new-view sub-protocol — is {!Replica_log}, shared
    with {!Hotstuff_replica}.  Consensus on different sequence numbers
    proceeds out-of-order (the paper's §4.5); [Execute] actions are
    nevertheless emitted in strict sequence order (§4.6).

    Fault model, as in the paper's experiments: crash faults and message
    reordering/duplication are exercised end-to-end; the quorum logic is
    byzantine-safe (conflicting proposals for the same slot cannot both
    commit — prepare and commit quorums are keyed by digest, so an
    equivocating primary only splits votes), signature forgery is excluded
    by the hosting system's message authentication, and view-change
    processing is rate-limited per sender so a spamming peer cannot grow
    unbounded view-change state.  Equivocation evidence and suppressed
    spam are counted ({!equivocations_detected}, {!vc_spam_suppressed})
    for the host's fault report. *)

type t

include Replica_log.REPLICA with type t := t
