type job = { service : Sim.time; submitted : Sim.time; k : unit -> unit }

type t = {
  sim : Sim.t;
  cores : int;
  cs_alpha : float;
  probe : (wait_ns:int -> held_ns:int -> at:Sim.time -> unit) option;
  waiting : job Queue.t;
  mutable running : int;
  mutable busy_ns_completed : int;
  (* Sum of the start times of the [running] jobs: their elapsed portion is
     [running * now - started_sum]. *)
  mutable started_sum : Sim.time;
}

let create ?(cs_alpha = 0.0) ?probe sim ~cores =
  if cores <= 0 then invalid_arg "Cpu.create: cores must be positive";
  {
    sim;
    cores;
    cs_alpha;
    probe;
    waiting = Queue.create ();
    running = 0;
    busy_ns_completed = 0;
    started_sum = 0;
  }

let cores t = t.cores

let inflated_service t service =
  if t.cs_alpha = 0.0 then service
  else begin
    let runnable = t.running + Queue.length t.waiting + 1 in
    if runnable <= t.cores then service
    else begin
      (* Past 3x over-subscription the scheduler's penalty flattens out:
         more waiting threads do not context-switch any more often. *)
      let excess = min (runnable - t.cores) (2 * t.cores) in
      int_of_float
        (float_of_int service
        *. (1.0 +. (t.cs_alpha *. float_of_int excess /. float_of_int t.cores)))
    end
  end

let rec start t job =
  t.running <- t.running + 1;
  let service = inflated_service t job.service in
  let started = Sim.now t.sim in
  t.started_sum <- t.started_sum + started;
  ignore
    (Sim.schedule t.sim ~after:service (fun () ->
         t.running <- t.running - 1;
         t.busy_ns_completed <- t.busy_ns_completed + service;
         t.started_sum <- t.started_sum - started;
         (match t.probe with
          | None -> ()
          | Some probe ->
            probe ~wait_ns:(started - job.submitted) ~held_ns:service
              ~at:(Sim.now t.sim));
         job.k ();
         dispatch t))

and dispatch t =
  if t.running < t.cores && not (Queue.is_empty t.waiting) then begin
    let job = Queue.pop t.waiting in
    start t job
  end

let submit t ~service k =
  if service < 0 then invalid_arg "Cpu.submit: negative service time";
  let job = { service; submitted = Sim.now t.sim; k } in
  if t.running < t.cores then start t job else Queue.push job t.waiting

let busy_ns t = t.busy_ns_completed + (t.running * Sim.now t.sim) - t.started_sum

let queue_length t = Queue.length t.waiting

let running t = t.running

let utilization t ~since_busy_ns ~since_time =
  let now = Sim.now t.sim in
  let elapsed = now - since_time in
  if elapsed <= 0 then 0.0
  else
    float_of_int (busy_ns t - since_busy_ns)
    /. (float_of_int elapsed *. float_of_int t.cores)
