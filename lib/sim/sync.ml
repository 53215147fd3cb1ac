(* Pop the next waiter whose fiber is still suspended; cancelled fibers
   (e.g. from a crashed site) are skipped so permits are never lost.
   Wait queues are [Ring]s, not [Queue]s: no cell allocation per
   waiter, and a waiter joins its ring through [Fiber.suspend_with],
   with no registration closure either. *)
let rec next_live_waiter waiters =
  match Ring.pop_opt waiters with
  | None -> None
  | Some w -> if Fiber.is_pending w then Some w else next_live_waiter waiters

module Mutex = struct
  type t = {
    mutable held : bool;
    waiters : unit Fiber.resumer Ring.t;
  }

  let create () = { held = false; waiters = Ring.create () }

  let locked t = t.held

  let lock t =
    if not t.held then t.held <- true
    else Fiber.suspend_with Ring.push t.waiters

  let unlock t =
    if not t.held then invalid_arg "Sync.Mutex.unlock: not locked";
    match next_live_waiter t.waiters with
    | Some resume -> Fiber.resume resume (Ok ()) (* ownership passes directly *)
    | None -> t.held <- false

  let with_lock t f =
    lock t;
    match f () with
    | v ->
        unlock t;
        v
    | exception e ->
        unlock t;
        raise e
end

module Condition = struct
  type t = {
    waiters : unit Fiber.resumer Ring.t;
    (* the mutex the fiber now waiting releases once queued *)
    mutable releasing : Mutex.t;
  }

  let no_mutex = Mutex.create ()

  let create (_ : Engine.t) = { waiters = Ring.create (); releasing = no_mutex }

  let enqueue t resume =
    Ring.push t.waiters resume;
    let mutex = t.releasing in
    t.releasing <- no_mutex;
    Mutex.unlock mutex

  let wait t mutex =
    t.releasing <- mutex;
    Fiber.suspend_with enqueue t;
    Mutex.lock mutex

  let signal t =
    match next_live_waiter t.waiters with
    | Some resume -> Fiber.resume resume (Ok ())
    | None -> ()

  let broadcast t =
    (* resumptions are queued through the engine, never run inline, so
       the wait queue cannot change under this iteration — wake in
       place with no intermediate list *)
    Ring.iter
      (fun resume -> if Fiber.is_pending resume then Fiber.resume resume (Ok ()))
      t.waiters;
    Ring.clear t.waiters
end

module Semaphore = struct
  type t = { mutable permits : int; waiters : unit Fiber.resumer Ring.t }

  let create n =
    if n < 0 then invalid_arg "Sync.Semaphore.create: negative permits";
    { permits = n; waiters = Ring.create () }

  let acquire t =
    if t.permits > 0 then t.permits <- t.permits - 1
    else Fiber.suspend_with Ring.push t.waiters

  let release t =
    match next_live_waiter t.waiters with
    | Some resume -> Fiber.resume resume (Ok ())
    | None -> t.permits <- t.permits + 1

  let available t = t.permits
end

module Resource = struct
  type t = {
    eng : Engine.t;
    name : string;
    servers : int;
    sem : Semaphore.t;
    mutable busy_time : float;
    mutable completions : int;
    mutable waiting : int;
  }

  let create ?(servers = 1) eng ~name =
    if servers <= 0 then invalid_arg "Sync.Resource.create: servers must be positive";
    {
      eng;
      name;
      servers;
      sem = Semaphore.create servers;
      busy_time = 0.0;
      completions = 0;
      waiting = 0;
    }

  let use t ~duration =
    if duration < 0.0 then invalid_arg "Sync.Resource.use: negative duration";
    let entered = Engine.now t.eng in
    t.waiting <- t.waiting + 1;
    (try Semaphore.acquire t.sem
     with e ->
       t.waiting <- t.waiting - 1;
       raise e);
    t.waiting <- t.waiting - 1;
    let waited = Engine.now t.eng -. entered in
    (* release the server even if the holder's site crashes mid-use *)
    (try Fiber.sleep duration
     with e ->
       Semaphore.release t.sem;
       raise e);
    t.busy_time <- t.busy_time +. duration;
    t.completions <- t.completions + 1;
    Semaphore.release t.sem;
    waited

  let name t = t.name
  let servers t = t.servers
  let in_use t = t.servers - Semaphore.available t.sem
  let busy_time t = t.busy_time
  let completions t = t.completions
  let queue_length t = t.waiting
end
