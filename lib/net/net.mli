(** Simulated datacenter network with a composable fault model.

    Model (matching the paper's Google-Cloud single-region deployment):
    - every node owns an egress NIC of configurable bandwidth; outgoing
      messages serialize through it FIFO (transmission delay =
      bytes / bandwidth), which is what makes large Pre-prepare messages a
      bandwidth bottleneck (paper Fig. 12);
    - after transmission, a message experiences a propagation latency with
      optional uniform jitter;
    - delivery is per-destination; there is no multicast offload, so a
      broadcast pays [n-1] transmissions, as on real hardware.

    Faults are composable and may be injected mid-run (typically by
    {!Rdb_core.Nemesis} against the DES clock):
    - {e crash faults}: crashed nodes silently drop traffic in both
      directions ({!crash}/{!recover}; the fault model of Fig. 17);
    - {e per-link probabilistic loss} and {e duplication}
      ({!set_loss}/{!set_duplication}), decided per message;
    - {e extra reordering jitter} ({!set_extra_jitter}), an additional
      uniform delay that reorders messages on a link;
    - {e named partitions} ({!partition}/{!heal}): traffic between the two
      sides of any active partition is cut; unnamed nodes are unaffected.

    Every dropped or duplicated message is counted
    ({!messages_dropped}, {!messages_duplicated}).

    Message payloads are opaque to the network ('a); sizes are explicit. *)

type 'a t

val create :
  Rdb_des.Sim.t ->
  nodes:int ->
  bandwidth_gbps:float ->
  latency:Rdb_des.Sim.time ->
  ?jitter:Rdb_des.Sim.time ->
  rng:Rdb_des.Rng.t ->
  deliver:(dst:int -> src:int -> 'a -> unit) ->
  unit ->
  'a t
(** [deliver] is invoked at the destination's arrival instant. *)

val nodes : 'a t -> int

val send : 'a t -> src:int -> dst:int -> bytes:int -> 'a -> unit
(** Queues the message on [src]'s NIC.  No-op if either side is crashed
    (a crashed source cannot send; traffic to a crashed node vanishes —
    drops for a crashed, partitioned or lossy destination are decided at
    arrival time, so a node that crashes or is partitioned away mid-flight
    still loses the message). *)

val crash : 'a t -> int -> unit

val recover : 'a t -> int -> unit

val is_crashed : 'a t -> int -> bool

(** {2 Fault-model configuration} *)

val set_loss : 'a t -> ?src:int -> ?dst:int -> float -> unit
(** [set_loss t ?src ?dst r] sets the drop probability (in [\[0, 1)]) of the
    links from [src] to [dst]; omitting [src] ([dst]) applies the rate to
    every source (destination), so [set_loss t r] makes the whole fabric
    lossy. *)

val set_duplication : 'a t -> ?src:int -> ?dst:int -> float -> unit
(** Like {!set_loss}, for the probability that a message is delivered
    twice (the duplicate takes an independently jittered path). *)

val set_extra_jitter : 'a t -> Rdb_des.Sim.time -> unit
(** Additional uniform per-message delay on every link; raises effective
    reordering (0 disables). *)

val partition : 'a t -> name:string -> int list -> int list -> unit
(** [partition t ~name side_a side_b] installs (or replaces) a named
    partition cutting all traffic between [side_a] and [side_b] in both
    directions.  Multiple named partitions compose (a message is dropped if
    any active partition cuts its link). *)

val heal : 'a t -> name:string -> unit
(** Removes one named partition; unknown names are a no-op. *)

(** {2 Adversarial interposition}

    A byzantine replica is modeled from {e outside} the consensus core: a
    per-source transform rewrites the node's outbound messages before they
    reach its NIC.  Returning [[]] suppresses the message (selective
    silence), a singleton passes it through or substitutes a tampered
    copy, and several elements fan out conflicting copies (equivocation).
    Each transformed copy pays full NIC transmission like any other
    message.  Installed and removed mid-run by [Rdb_core.Nemesis]
    byzantine strategies. *)

val set_interpose : 'a t -> src:int -> (dst:int -> 'a -> 'a list) -> unit
(** Install (or replace) the outbound transform of one node. *)

val clear_interpose : 'a t -> src:int -> unit
(** Restore the node to honest pass-through behavior. *)

(** {2 Accounting} *)

val messages_sent : 'a t -> int

val bytes_sent : 'a t -> int

val messages_dropped : 'a t -> int
(** Total messages dropped by any fault (crash + loss + partition). *)

val messages_duplicated : 'a t -> int

val messages_suppressed : 'a t -> int
(** Messages erased by an adversarial interposition transform returning
    [[]] (selective silence). *)
