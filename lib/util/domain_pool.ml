(* A fixed-size pool of worker domains with ordered fan-out: [map]
   distributes items over the workers but always reassembles results in
   submission order, so a parallel map is observationally identical to
   [List.map] (modulo wall-clock time).  There is no work stealing and
   no cross-item communication; each item is claimed whole by one
   worker.

   Workers are spawned lazily on the first parallel [map] and kept
   alive until [shutdown]; a pool with [jobs = 1] never spawns and runs
   everything inline. *)

type job = Job of (unit -> unit) | Quit

type t = {
  jobs : int;
  mutex : Mutex.t;
  work_available : Condition.t;
  batch_done : Condition.t;
  queue : job Queue.t;
  mutable workers : unit Domain.t list;
  mutable worker_ids : Domain.id list;
}

let default_jobs () = Domain.recommended_domain_count ()

let create ?jobs () =
  let jobs =
    match jobs with Some j -> max 1 j | None -> default_jobs ()
  in
  {
    jobs;
    mutex = Mutex.create ();
    work_available = Condition.create ();
    batch_done = Condition.create ();
    queue = Queue.create ();
    workers = [];
    worker_ids = [];
  }

let jobs t = t.jobs

(* Each OCaml 5 minor collection stops every domain, so the workers'
   minor heaps set how often the whole pool pauses.  On a 2-vCPU host,
   bench/perf's zoo-verify took 2.2-2.5 s at the default 256k words and
   1.8-2.0 s at 1M words, which costs 8 MiB per worker; 4M words was
   5-10% faster still but raised its peak RSS by about 15%.  A [Gc.set]
   reaches only the domain that calls it, so each worker sets its own. *)
let worker_minor_heap_words = 1 lsl 20

let worker_loop t () =
  Gc.set { (Gc.get ()) with Gc.minor_heap_size = worker_minor_heap_words };
  let rec go () =
    Mutex.lock t.mutex;
    while Queue.is_empty t.queue do
      Condition.wait t.work_available t.mutex
    done;
    let job = Queue.pop t.queue in
    Mutex.unlock t.mutex;
    match job with
    | Quit -> ()
    | Job f ->
      f ();
      go ()
  in
  go ()

let ensure_workers t =
  if t.workers = [] then begin
    let ws = List.init t.jobs (fun _ -> Domain.spawn (worker_loop t)) in
    t.workers <- ws;
    t.worker_ids <- List.map Domain.get_id ws
  end

let in_worker t = List.mem (Domain.self ()) t.worker_ids

let map t f items =
  let n = List.length items in
  (* nested fan-out from inside a worker would deadlock on the shared
     queue; run inline instead (same results, already parallel above) *)
  if t.jobs <= 1 || n <= 1 || in_worker t then List.map f items
  else begin
    ensure_workers t;
    let arr = Array.make n None in
    let items = Array.of_list items in
    let remaining = ref n in
    Mutex.lock t.mutex;
    Array.iteri
      (fun i x ->
        Queue.add
          (Job
             (fun () ->
               let r = try Ok (f x) with e -> Error e in
               Mutex.lock t.mutex;
               arr.(i) <- Some r;
               decr remaining;
               if !remaining = 0 then Condition.broadcast t.batch_done;
               Mutex.unlock t.mutex))
          t.queue)
      items;
    Condition.broadcast t.work_available;
    while !remaining > 0 do
      Condition.wait t.batch_done t.mutex
    done;
    Mutex.unlock t.mutex;
    Array.to_list
      (Array.map
         (function
           | Some (Ok v) -> v
           | Some (Error e) -> raise e
           | None -> assert false)
         arr)
  end

let shutdown t =
  if t.workers <> [] then begin
    Mutex.lock t.mutex;
    List.iter (fun _ -> Queue.add Quit t.queue) t.workers;
    Condition.broadcast t.work_available;
    Mutex.unlock t.mutex;
    List.iter Domain.join t.workers;
    t.workers <- [];
    t.worker_ids <- []
  end
