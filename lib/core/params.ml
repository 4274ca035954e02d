(* See params.mli for the model.  The flat record here is the *resolved*
   configuration — the read surface the whole simulator keeps — while the
   sub-modules are the only public way to build one. *)

module Sim = Rdb_des.Sim
module Signer = Rdb_crypto.Signer
module Axis = Rdb_obs.Axis

type protocol = Pbft | Zyzzyva | Hotstuff

let protocol_name = function
  | Pbft -> "pbft"
  | Zyzzyva -> "zyzzyva"
  | Hotstuff -> "hotstuff"

let protocol_of_name = function
  | "pbft" -> Some Pbft
  | "zyzzyva" | "zyz" -> Some Zyzzyva
  | "hotstuff" | "hs" -> Some Hotstuff
  | _ -> None

(* ---- structured sub-records ------------------------------------------------ *)

module Consensus = struct
  type t = {
    protocol : protocol;
    n : int;
    instances : int;
    batch_size : int;
    max_inflight_batches : int;
    checkpoint_txns : int;
    view_timeout : Sim.time;
    zyzzyva_timeout : Sim.time;
    client_scheme : Signer.scheme;
    replica_scheme : Signer.scheme;
    reply_scheme : Signer.scheme;
    verify_sharing : bool;
    verify_cache_capacity : int;
    use_buffer_pool : bool;
  }

  let default =
    {
      protocol = Pbft;
      n = 16;
      instances = 1;
      batch_size = 100;
      max_inflight_batches = 64;
      checkpoint_txns = 10_000;
      view_timeout = Sim.ms 150.0;
      zyzzyva_timeout = Sim.ms 40.0;
      client_scheme = Signer.Ed25519;
      replica_scheme = Signer.Cmac_aes;
      reply_scheme = Signer.Cmac_aes;
      verify_sharing = true;
      verify_cache_capacity = 8192;
      use_buffer_pool = true;
    }

  let v ?(protocol = default.protocol) ?(n = default.n) ?(instances = default.instances)
      ?(batch_size = default.batch_size) ?(max_inflight_batches = default.max_inflight_batches)
      ?(checkpoint_txns = default.checkpoint_txns) ?(view_timeout = default.view_timeout)
      ?(zyzzyva_timeout = default.zyzzyva_timeout) ?(client_scheme = default.client_scheme)
      ?(replica_scheme = default.replica_scheme) ?(reply_scheme = default.reply_scheme)
      ?(verify_sharing = default.verify_sharing)
      ?(verify_cache_capacity = default.verify_cache_capacity)
      ?(use_buffer_pool = default.use_buffer_pool) () =
    {
      protocol;
      n;
      instances;
      batch_size;
      max_inflight_batches;
      checkpoint_txns;
      view_timeout;
      zyzzyva_timeout;
      client_scheme;
      replica_scheme;
      reply_scheme;
      verify_sharing;
      verify_cache_capacity;
      use_buffer_pool;
    }
end

module Workload = struct
  type t = {
    clients : int;
    ops_per_txn : int;
    txn_wire_bytes : int;
    preprepare_payload_bytes : int;
  }

  let default =
    { clients = 80_000; ops_per_txn = 1; txn_wire_bytes = 50; preprepare_payload_bytes = 0 }

  let v ?(clients = default.clients) ?(ops_per_txn = default.ops_per_txn)
      ?(txn_wire_bytes = default.txn_wire_bytes)
      ?(preprepare_payload_bytes = default.preprepare_payload_bytes) () =
    { clients; ops_per_txn; txn_wire_bytes; preprepare_payload_bytes }
end

module Exec = struct
  type t = {
    cores : int;
    batch_threads : int;
    execute_threads : int;
    exec_records : int;
    sqlite : bool;
    cost : Rdb_crypto.Cost_model.t;
  }

  let default =
    {
      cores = 8;
      batch_threads = 2;
      execute_threads = 1;
      exec_records = 600_000;
      sqlite = false;
      cost = Rdb_crypto.Cost_model.default;
    }

  let v ?(cores = default.cores) ?(batch_threads = default.batch_threads)
      ?(execute_threads = default.execute_threads) ?(exec_records = default.exec_records)
      ?(sqlite = default.sqlite) ?(cost = default.cost) () =
    { cores; batch_threads; execute_threads; exec_records; sqlite; cost }
end

module Faults = struct
  type t = {
    crashed_backups : int;
    loss_rate : float;
    duplication_rate : float;
    extra_jitter : Sim.time;
    nemesis : Nemesis.schedule;
    client_timeout : Sim.time;
  }

  let default =
    {
      crashed_backups = 0;
      loss_rate = 0.0;
      duplication_rate = 0.0;
      extra_jitter = 0;
      nemesis = [];
      client_timeout = 0;
    }

  let v ?(crashed_backups = default.crashed_backups) ?(loss_rate = default.loss_rate)
      ?(duplication_rate = default.duplication_rate) ?(extra_jitter = default.extra_jitter)
      ?(nemesis = default.nemesis) ?(client_timeout = default.client_timeout) () =
    { crashed_backups; loss_rate; duplication_rate; extra_jitter; nemesis; client_timeout }
end

module Durability = struct
  type t = { durable : bool; data_dir : string option }

  let default = { durable = false; data_dir = None }

  let v ?(durable = default.durable) ?(data_dir = default.data_dir) () = { durable; data_dir }
end

module Topology = struct
  type t = {
    bandwidth_gbps : float;
    latency : Sim.time;
    jitter : Sim.time;
    client_machines : int;
    shards : int;
    cross_shard_fraction : float;
    regions : Rdb_net.Topology.t option;
  }

  let default =
    {
      bandwidth_gbps = 7.0;
      latency = Sim.us 250.0;
      jitter = Sim.us 50.0;
      client_machines = 4;
      shards = 1;
      cross_shard_fraction = 0.0;
      regions = None;
    }

  let v ?(bandwidth_gbps = default.bandwidth_gbps) ?(latency = default.latency)
      ?(jitter = default.jitter) ?(client_machines = default.client_machines)
      ?(shards = default.shards) ?(cross_shard_fraction = default.cross_shard_fraction)
      ?(regions = default.regions) () =
    { bandwidth_gbps; latency; jitter; client_machines; shards; cross_shard_fraction; regions }
end

module Obs = struct
  type t = {
    trace : bool;
    trace_out : string option;
    trace_csv : string option;
    trace_interval : Sim.time;
    trace_max_events : int;
  }

  let default =
    {
      trace = false;
      trace_out = None;
      trace_csv = None;
      trace_interval = Sim.ms 5.0;
      trace_max_events = 200_000;
    }

  let v ?(trace = default.trace) ?(trace_out = default.trace_out)
      ?(trace_csv = default.trace_csv) ?(trace_interval = default.trace_interval)
      ?(trace_max_events = default.trace_max_events) () =
    { trace; trace_out; trace_csv; trace_interval; trace_max_events }
end

(* ---- the resolved record --------------------------------------------------- *)

type t = {
  protocol : protocol;
  n : int;
  clients : int;
  client_machines : int;
  batch_size : int;
  ops_per_txn : int;
  txn_wire_bytes : int;
  preprepare_payload_bytes : int;
  client_scheme : Signer.scheme;
  replica_scheme : Signer.scheme;
  reply_scheme : Signer.scheme;
  sqlite : bool;
  durable : bool;
  data_dir : string option;
  cores : int;
  instances : int;
  batch_threads : int;
  execute_threads : int;
  exec_records : int;
  checkpoint_txns : int;
  max_inflight_batches : int;
  crashed_backups : int;
  loss_rate : float;
  duplication_rate : float;
  extra_jitter : Sim.time;
  nemesis : Nemesis.schedule;
  client_timeout : Sim.time;
  view_timeout : Sim.time;
  use_buffer_pool : bool;
  verify_sharing : bool;
  verify_cache_capacity : int;
  zyzzyva_timeout : Sim.time;
  bandwidth_gbps : float;
  latency : Sim.time;
  jitter : Sim.time;
  shards : int;
  cross_shard_fraction : float;
  regions : Rdb_net.Topology.t option;
  cost : Rdb_crypto.Cost_model.t;
  warmup : Sim.time;
  measure : Sim.time;
  seed : int64;
  trace : bool;
  trace_out : string option;
  trace_csv : string option;
  trace_interval : Sim.time;
  trace_max_events : int;
}

let assemble (c : Consensus.t) (w : Workload.t) (e : Exec.t) (fa : Faults.t) (d : Durability.t)
    (tp : Topology.t) (o : Obs.t) ~warmup ~measure ~seed : t =
  {
    protocol = c.Consensus.protocol;
    n = c.Consensus.n;
    clients = w.Workload.clients;
    client_machines = tp.Topology.client_machines;
    batch_size = c.Consensus.batch_size;
    ops_per_txn = w.Workload.ops_per_txn;
    txn_wire_bytes = w.Workload.txn_wire_bytes;
    preprepare_payload_bytes = w.Workload.preprepare_payload_bytes;
    client_scheme = c.Consensus.client_scheme;
    replica_scheme = c.Consensus.replica_scheme;
    reply_scheme = c.Consensus.reply_scheme;
    sqlite = e.Exec.sqlite;
    durable = d.Durability.durable;
    data_dir = d.Durability.data_dir;
    cores = e.Exec.cores;
    instances = c.Consensus.instances;
    batch_threads = e.Exec.batch_threads;
    execute_threads = e.Exec.execute_threads;
    exec_records = e.Exec.exec_records;
    checkpoint_txns = c.Consensus.checkpoint_txns;
    max_inflight_batches = c.Consensus.max_inflight_batches;
    crashed_backups = fa.Faults.crashed_backups;
    loss_rate = fa.Faults.loss_rate;
    duplication_rate = fa.Faults.duplication_rate;
    extra_jitter = fa.Faults.extra_jitter;
    nemesis = fa.Faults.nemesis;
    client_timeout = fa.Faults.client_timeout;
    view_timeout = c.Consensus.view_timeout;
    use_buffer_pool = c.Consensus.use_buffer_pool;
    verify_sharing = c.Consensus.verify_sharing;
    verify_cache_capacity = c.Consensus.verify_cache_capacity;
    zyzzyva_timeout = c.Consensus.zyzzyva_timeout;
    bandwidth_gbps = tp.Topology.bandwidth_gbps;
    latency = tp.Topology.latency;
    jitter = tp.Topology.jitter;
    shards = tp.Topology.shards;
    cross_shard_fraction = tp.Topology.cross_shard_fraction;
    regions = tp.Topology.regions;
    cost = e.Exec.cost;
    warmup;
    measure;
    seed;
    trace = o.Obs.trace;
    trace_out = o.Obs.trace_out;
    trace_csv = o.Obs.trace_csv;
    trace_interval = o.Obs.trace_interval;
    trace_max_events = o.Obs.trace_max_events;
  }

let make ?(consensus = Consensus.default) ?(workload = Workload.default) ?(exec = Exec.default)
    ?(faults = Faults.default) ?(durability = Durability.default)
    ?(topology = Topology.default) ?(obs = Obs.default) ?(warmup = Sim.seconds 0.5)
    ?(measure = Sim.seconds 1.0) ?(seed = 0x5265736442L) () =
  assemble consensus workload exec faults durability topology obs ~warmup ~measure ~seed

let default = make ()

(* ---- projections ----------------------------------------------------------- *)

let consensus (p : t) : Consensus.t =
  {
    Consensus.protocol = p.protocol;
    n = p.n;
    instances = p.instances;
    batch_size = p.batch_size;
    max_inflight_batches = p.max_inflight_batches;
    checkpoint_txns = p.checkpoint_txns;
    view_timeout = p.view_timeout;
    zyzzyva_timeout = p.zyzzyva_timeout;
    client_scheme = p.client_scheme;
    replica_scheme = p.replica_scheme;
    reply_scheme = p.reply_scheme;
    verify_sharing = p.verify_sharing;
    verify_cache_capacity = p.verify_cache_capacity;
    use_buffer_pool = p.use_buffer_pool;
  }

let workload (p : t) : Workload.t =
  {
    Workload.clients = p.clients;
    ops_per_txn = p.ops_per_txn;
    txn_wire_bytes = p.txn_wire_bytes;
    preprepare_payload_bytes = p.preprepare_payload_bytes;
  }

let exec (p : t) : Exec.t =
  {
    Exec.cores = p.cores;
    batch_threads = p.batch_threads;
    execute_threads = p.execute_threads;
    exec_records = p.exec_records;
    sqlite = p.sqlite;
    cost = p.cost;
  }

let faults (p : t) : Faults.t =
  {
    Faults.crashed_backups = p.crashed_backups;
    loss_rate = p.loss_rate;
    duplication_rate = p.duplication_rate;
    extra_jitter = p.extra_jitter;
    nemesis = p.nemesis;
    client_timeout = p.client_timeout;
  }

let durability (p : t) : Durability.t = { Durability.durable = p.durable; data_dir = p.data_dir }

let topology (p : t) : Topology.t =
  {
    Topology.bandwidth_gbps = p.bandwidth_gbps;
    latency = p.latency;
    jitter = p.jitter;
    client_machines = p.client_machines;
    shards = p.shards;
    cross_shard_fraction = p.cross_shard_fraction;
    regions = p.regions;
  }

let obs (p : t) : Obs.t =
  {
    Obs.trace = p.trace;
    trace_out = p.trace_out;
    trace_csv = p.trace_csv;
    trace_interval = p.trace_interval;
    trace_max_events = p.trace_max_events;
  }

let rebuild p ~c ~w ~e ~fa ~d ~tp ~o =
  assemble c w e fa d tp o ~warmup:p.warmup ~measure:p.measure ~seed:p.seed

let split p = (consensus p, workload p, exec p, faults p, durability p, topology p, obs p)

let map_consensus f p =
  let c, w, e, fa, d, tp, o = split p in
  rebuild p ~c:(f c) ~w ~e ~fa ~d ~tp ~o

let map_workload f p =
  let c, w, e, fa, d, tp, o = split p in
  rebuild p ~c ~w:(f w) ~e ~fa ~d ~tp ~o

let map_exec f p =
  let c, w, e, fa, d, tp, o = split p in
  rebuild p ~c ~w ~e:(f e) ~fa ~d ~tp ~o

let map_faults f p =
  let c, w, e, fa, d, tp, o = split p in
  rebuild p ~c ~w ~e ~fa:(f fa) ~d ~tp ~o

let map_durability f p =
  let c, w, e, fa, d, tp, o = split p in
  rebuild p ~c ~w ~e ~fa ~d:(f d) ~tp ~o

let map_topology f p =
  let c, w, e, fa, d, tp, o = split p in
  rebuild p ~c ~w ~e ~fa ~d ~tp:(f tp) ~o

let map_obs f p =
  let c, w, e, fa, d, tp, o = split p in
  rebuild p ~c ~w ~e ~fa ~d ~tp ~o:(f o)

let with_protocol protocol = map_consensus (fun c -> { c with Consensus.protocol })
let with_n n = map_consensus (fun c -> { c with Consensus.n })
let with_instances instances = map_consensus (fun c -> { c with Consensus.instances })
let with_batch_size batch_size = map_consensus (fun c -> { c with Consensus.batch_size })
let with_clients clients = map_workload (fun w -> { w with Workload.clients })
let with_execute_threads execute_threads = map_exec (fun e -> { e with Exec.execute_threads })
let with_batch_threads batch_threads = map_exec (fun e -> { e with Exec.batch_threads })
let with_cores cores = map_exec (fun e -> { e with Exec.cores })
let with_crashed_backups crashed_backups = map_faults (fun f -> { f with Faults.crashed_backups })
let with_nemesis nemesis = map_faults (fun f -> { f with Faults.nemesis })
let with_view_timeout view_timeout = map_consensus (fun c -> { c with Consensus.view_timeout })
let with_client_timeout client_timeout = map_faults (fun f -> { f with Faults.client_timeout })
let with_durable durable = map_durability (fun d -> { d with Durability.durable })
let with_data_dir data_dir = map_durability (fun d -> { d with Durability.data_dir })
let with_shards shards = map_topology (fun tp -> { tp with Topology.shards })

let with_cross_shard_fraction cross_shard_fraction =
  map_topology (fun tp -> { tp with Topology.cross_shard_fraction })

let with_seed seed p = { p with seed }
let with_windows ~warmup ~measure p = { p with warmup; measure }
let with_trace trace = map_obs (fun o -> { o with Obs.trace })

(* ---- derived quantities ---------------------------------------------------- *)

let f t = (t.n - 1) / 3

(** Conflict-aware execute lanes this configuration runs: [execute_threads]
    when E >= 2, 0 for the classic (E <= 1) pipeline. *)
let exec_lanes t = if t.execute_threads > 1 then t.execute_threads else 0

let obs_enabled t = t.trace || t.trace_out <> None || t.trace_csv <> None

let checkpoint_interval t = max 1 (t.checkpoint_txns / max 1 t.batch_size)

let validate t =
  if t.n < 4 then invalid_arg "Params: n must be >= 4";
  if t.batch_size < 1 then invalid_arg "Params: batch_size must be >= 1";
  if t.execute_threads < 0 || t.execute_threads > 64 then
    invalid_arg
      "Params: execute_threads must be in [0, 64] (E >= 2 runs the conflict-aware lane \
       scheduler; the paper's bare multi-threaded execution is never allowed because \
       unscheduled execution threads cause data conflicts)";
  if t.exec_records < 1 then invalid_arg "Params: exec_records must be >= 1";
  if t.batch_threads < 0 then invalid_arg "Params: batch_threads must be >= 0";
  if t.crashed_backups > f t then invalid_arg "Params: cannot crash more than f backups";
  if t.clients < 1 then invalid_arg "Params: need at least one client";
  if t.cores < 1 then invalid_arg "Params: need at least one core";
  if t.instances < 1 then invalid_arg "Params: instances must be >= 1";
  if t.instances > 1 && t.protocol <> Pbft then
    invalid_arg "Params: multi-primary ordering (instances > 1) is a PBFT deployment";
  if t.instances > 62 then invalid_arg "Params: instances must be <= 62";
  if t.loss_rate < 0.0 || t.loss_rate >= 1.0 then
    invalid_arg "Params: loss_rate must be in [0, 1)";
  if t.duplication_rate < 0.0 || t.duplication_rate >= 1.0 then
    invalid_arg "Params: duplication_rate must be in [0, 1)";
  if t.extra_jitter < 0 then invalid_arg "Params: extra_jitter must be non-negative";
  if t.client_timeout < 0 then invalid_arg "Params: client_timeout must be non-negative";
  if t.view_timeout <= 0 then invalid_arg "Params: view_timeout must be positive";
  if t.verify_cache_capacity < 1 then
    invalid_arg "Params: verify_cache_capacity must be >= 1";
  if t.data_dir <> None && not t.durable then
    invalid_arg "Params: data_dir is only meaningful with durable = true";
  if t.trace_interval <= 0 then invalid_arg "Params: trace_interval must be positive";
  if t.trace_max_events < 1 then invalid_arg "Params: trace_max_events must be >= 1";
  if t.shards < 1 then invalid_arg "Params: shards must be >= 1";
  if t.shards > 64 then invalid_arg "Params: shards must be <= 64";
  if t.cross_shard_fraction < 0.0 || t.cross_shard_fraction > 1.0 then
    invalid_arg "Params: cross_shard_fraction must be in [0, 1]";
  if t.cross_shard_fraction > 0.0 && t.shards < 2 then
    invalid_arg "Params: cross_shard_fraction needs shards >= 2";
  (match t.regions with
  | Some topo ->
    if Rdb_net.Topology.shards topo < t.shards then
      invalid_arg "Params: regions topology places fewer shards than configured"
  | None -> ());
  Nemesis.validate ~n:t.n t.nemesis

(* ---- the axis table -------------------------------------------------------- *)

module Spec = struct
  type entry = {
    key : string;
    aliases : string list;
    doc : string;
    bool_flag : bool;
    get : t -> string;
    set : string -> t -> (t, string) result;
  }

  let int_set name f v p =
    match int_of_string_opt v with
    | Some i -> Ok (f i p)
    | None -> Error (Printf.sprintf "%s: expected an integer, got %S" name v)

  let float_set name f v p =
    match float_of_string_opt v with
    | Some x -> Ok (f x p)
    | None -> Error (Printf.sprintf "%s: expected a number, got %S" name v)

  let bool_set name f v p =
    match bool_of_string_opt v with
    | Some b -> Ok (f b p)
    | None -> Error (Printf.sprintf "%s: expected true or false, got %S" name v)

  let scheme_of_name = function
    | "none" -> Some Signer.No_sig
    | "cmac" -> Some Signer.Cmac_aes
    | "ed25519" -> Some Signer.Ed25519
    | "rsa" -> Some Signer.Rsa
    | _ -> None

  let scheme_set name f v p =
    match scheme_of_name v with
    | Some s -> Ok (f s p)
    | None -> Error (Printf.sprintf "%s: unknown scheme %S (none|cmac|ed25519|rsa)" name v)

  let seconds_get t = Printf.sprintf "%g" (Sim.to_seconds t)

  let entries =
    [
      {
        key = Axis.protocol;
        aliases = [ "p" ];
        doc = "Consensus protocol (pbft|zyzzyva|hotstuff).";
        bool_flag = false;
        get = (fun p -> protocol_name p.protocol);
        set =
          (fun v p ->
            match protocol_of_name v with
            | Some pr -> Ok (with_protocol pr p)
            | None ->
              Error (Printf.sprintf "protocol: unknown protocol %S (pbft|zyzzyva|hotstuff)" v));
      };
      {
        key = Axis.replicas;
        aliases = [ "n" ];
        doc = "Number of replicas per consensus group (>= 4).";
        bool_flag = false;
        get = (fun p -> string_of_int p.n);
        set = int_set Axis.replicas with_n;
      };
      {
        key = Axis.clients;
        aliases = [ "c" ];
        doc = "Closed-loop client population.";
        bool_flag = false;
        get = (fun p -> string_of_int p.clients);
        set = int_set Axis.clients with_clients;
      };
      {
        key = Axis.batch_size;
        aliases = [ "b" ];
        doc = "Transactions per batch.";
        bool_flag = false;
        get = (fun p -> string_of_int p.batch_size);
        set = int_set Axis.batch_size with_batch_size;
      };
      {
        key = Axis.ops_per_txn;
        aliases = [];
        doc = "Operations per transaction.";
        bool_flag = false;
        get = (fun p -> string_of_int p.ops_per_txn);
        set =
          int_set Axis.ops_per_txn (fun ops_per_txn ->
              map_workload (fun w -> { w with Workload.ops_per_txn }));
      };
      {
        key = Axis.payload_bytes;
        aliases = [];
        doc = "Extra Pre-prepare payload bytes (message-size experiments).";
        bool_flag = false;
        get = (fun p -> string_of_int p.preprepare_payload_bytes);
        set =
          int_set Axis.payload_bytes (fun preprepare_payload_bytes ->
              map_workload (fun w -> { w with Workload.preprepare_payload_bytes }));
      };
      {
        key = Axis.client_scheme;
        aliases = [];
        doc = "Client signature scheme (none|cmac|ed25519|rsa).";
        bool_flag = false;
        get = (fun p -> Signer.scheme_name p.client_scheme);
        set =
          scheme_set Axis.client_scheme (fun client_scheme ->
              map_consensus (fun c -> { c with Consensus.client_scheme }));
      };
      {
        key = Axis.replica_scheme;
        aliases = [];
        doc = "Replica-to-replica scheme (none|cmac|ed25519|rsa).";
        bool_flag = false;
        get = (fun p -> Signer.scheme_name p.replica_scheme);
        set =
          scheme_set Axis.replica_scheme (fun replica_scheme ->
              map_consensus (fun c -> { c with Consensus.replica_scheme }));
      };
      {
        key = Axis.reply_scheme;
        aliases = [];
        doc = "Replica-to-client reply scheme (none|cmac|ed25519|rsa).";
        bool_flag = false;
        get = (fun p -> Signer.scheme_name p.reply_scheme);
        set =
          scheme_set Axis.reply_scheme (fun reply_scheme ->
              map_consensus (fun c -> { c with Consensus.reply_scheme }));
      };
      {
        key = Axis.sqlite;
        aliases = [];
        doc = "Use off-memory (SQLite-class) storage.";
        bool_flag = true;
        get = (fun p -> string_of_bool p.sqlite);
        set = bool_set Axis.sqlite (fun sqlite -> map_exec (fun e -> { e with Exec.sqlite }));
      };
      {
        key = Axis.backend;
        aliases = [];
        doc =
          "Ledger backend: mem, or durable for the WAL + B-tree block store (appends and \
           checkpoint flushes charged on the checkpoint-thread).";
        bool_flag = false;
        get = (fun p -> if p.durable then "durable" else "mem");
        set =
          (fun v p ->
            match v with
            | "mem" | "false" -> Ok (with_durable false p)
            | "durable" | "true" -> Ok (with_durable true p)
            | _ -> Error (Printf.sprintf "backend: expected mem or durable, got %S" v));
      };
      {
        key = Axis.data_dir;
        aliases = [];
        doc =
          "Directory for the durable block stores (implies the durable backend; one \
           subdirectory per replica).  Re-using a directory exercises crash-replay recovery.";
        bool_flag = false;
        get = (fun p -> match p.data_dir with Some d -> d | None -> "");
        set = (fun v p -> Ok (p |> with_durable true |> with_data_dir (Some v)));
      };
      {
        key = Axis.cores;
        aliases = [];
        doc = "CPU cores per replica.";
        bool_flag = false;
        get = (fun p -> string_of_int p.cores);
        set = int_set Axis.cores with_cores;
      };
      {
        key = Axis.instances;
        aliases = [ "k" ];
        doc = "Concurrent PBFT consensus instances (multi-primary ordering; 1 = classic).";
        bool_flag = false;
        get = (fun p -> string_of_int p.instances);
        set = int_set Axis.instances with_instances;
      };
      {
        key = Axis.batch_threads;
        aliases = [ "B" ];
        doc = "Batch-threads at the primary (0 = worker batches).";
        bool_flag = false;
        get = (fun p -> string_of_int p.batch_threads);
        set = int_set Axis.batch_threads with_batch_threads;
      };
      {
        key = Axis.exec_threads;
        aliases = [ "E"; "execute-threads" ];
        doc =
          "Execute-threads: 0 = the worker executes, 1 = the paper's dedicated \
           execute-thread, >= 2 = conflict-aware parallel execution across E lanes.";
        bool_flag = false;
        get = (fun p -> string_of_int p.execute_threads);
        set = int_set Axis.exec_threads with_execute_threads;
      };
      {
        key = Axis.crashed;
        aliases = [];
        doc = "Backups crashed at start (<= f).";
        bool_flag = false;
        get = (fun p -> string_of_int p.crashed_backups);
        set = int_set Axis.crashed with_crashed_backups;
      };
      {
        key = Axis.view_timeout_ms;
        aliases = [];
        doc = "View-change timeout in milliseconds.";
        bool_flag = false;
        get = (fun p -> Printf.sprintf "%g" (Sim.to_seconds p.view_timeout *. 1000.0));
        set = float_set Axis.view_timeout_ms (fun ms -> with_view_timeout (Sim.ms ms));
      };
      {
        key = Axis.shards;
        aliases = [ "S" ];
        doc =
          "Independent consensus groups over a partitioned keyspace (1 = the classic \
           single-group deployment).";
        bool_flag = false;
        get = (fun p -> string_of_int p.shards);
        set = int_set Axis.shards with_shards;
      };
      {
        key = Axis.cross_shard;
        aliases = [ "x" ];
        doc =
          "Fraction of transactions touching a second shard (2PC-over-BFT commit path), in \
           [0, 1].";
        bool_flag = false;
        get = (fun p -> Printf.sprintf "%g" p.cross_shard_fraction);
        set = float_set Axis.cross_shard with_cross_shard_fraction;
      };
      {
        key = Axis.warmup;
        aliases = [];
        doc = "Warmup seconds (simulated).";
        bool_flag = false;
        get = (fun p -> seconds_get p.warmup);
        set =
          float_set Axis.warmup (fun s p ->
              with_windows ~warmup:(Sim.seconds s) ~measure:p.measure p);
      };
      {
        key = Axis.measure;
        aliases = [];
        doc = "Measurement seconds (simulated).";
        bool_flag = false;
        get = (fun p -> seconds_get p.measure);
        set =
          float_set Axis.measure (fun s p ->
              with_windows ~warmup:p.warmup ~measure:(Sim.seconds s) p);
      };
      {
        key = Axis.seed;
        aliases = [];
        doc = "Random seed (runs are deterministic).";
        bool_flag = false;
        get = (fun p -> Int64.to_string p.seed);
        set =
          (fun v p ->
            match Int64.of_string_opt v with
            | Some s -> Ok (with_seed s p)
            | None -> Error (Printf.sprintf "seed: expected an integer, got %S" v));
      };
    ]

  let find key = List.find_opt (fun e -> e.key = key) entries

  let apply assignments p =
    List.fold_left
      (fun acc (key, value) ->
        match acc with
        | Error _ as e -> e
        | Ok p -> (
          match find key with
          | None -> Error (Printf.sprintf "unknown configuration axis %S" key)
          | Some e -> e.set value p))
      (Ok p) assignments
end
