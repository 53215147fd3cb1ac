(* The event queue is split into two lanes:

   - timed events go through a time-ordered queue keyed by
     [(time, sequence)] — the 4-ary [Heap] by default, or the
     calendar-queue [Wheel] when the engine is created with
     [~timers:Wheel_timers] (same order, near-O(1) in the
     millions-of-pending-timers regime);
   - same-instant events ([delay = 0] — every [Fiber.yield], every
     resumption routed through the queue) go through a flat FIFO ring
     and never touch the timed queue.

   Ring entries always carry the current virtual time: the clock only
   advances by executing a timed event, and a timed event is only
   chosen while the ring is non-empty if it is an *older* same-instant
   event (smaller sequence number at the same time). Interleaving the
   two lanes by [(time, seq)] therefore reproduces exactly the order a
   single heap would give — determinism is preserved bit-for-bit, and
   both timer backends replay the identical schedule.

   Timers ([schedule_timer]) support cancellation by lazy deletion:
   cancelling drops the callback immediately (captured state becomes
   collectable) and leaves a small tombstone in the queue that is
   discarded, not executed, when it surfaces.

   Pending-count invariant: [dead] counts exactly the cancelled timers
   whose tombstones are still buried in either lane — cancellation
   increments it, draining a tombstone decrements it, and nothing else
   touches it (a timer that already fired flips [live] first, so a
   late cancel cannot re-increment). Hence
   [pending = queue + ring - dead] never counts a cancelled timer,
   even while its tombstone is still queued. *)

type timer = { mutable live : bool; mutable fn : unit -> unit }

(* An event applies a function to its argument: fibers queue their
   resumer record as the argument, so a wakeup allocates no closure;
   plain callbacks are applied to [()]. *)
type event = Apply : ('a -> unit) * 'a -> event | Timer of timer

type timers = Heap_timers | Wheel_timers

(* The timed lane: one of the two interchangeable backends. A closed
   variant (not a record of closures) so the default heap path costs
   one branch, no indirect call. *)
type queue = Qheap of event Heap.t | Qwheel of event Wheel.t

let noop () = ()

(* shared sentinel for vacated ring slots *)
let noop_event = Apply (noop, ())

type t = {
  mutable now : float;
  mutable seq : int;
  mutable executed : int;
  mutable dead : int; (* cancelled timers still buried in the queue *)
  queue : queue;
  (* same-instant FIFO lane: parallel circular buffers, power-of-two
     capacity, [ring_seq] holding each event's global sequence number *)
  mutable ring : event array;
  mutable ring_seq : int array;
  mutable head : int;
  mutable len : int;
}

let create ?(timers = Heap_timers) () =
  {
    now = 0.0;
    seq = 0;
    executed = 0;
    dead = 0;
    queue =
      (match timers with
      | Heap_timers -> Qheap (Heap.create ())
      | Wheel_timers -> Qwheel (Wheel.create ()));
    ring = [||];
    ring_seq = [||];
    head = 0;
    len = 0;
  }

let now t = t.now

let[@inline] q_is_empty = function
  | Qheap h -> Heap.is_empty h
  | Qwheel w -> Wheel.is_empty w

let[@inline] q_length = function
  | Qheap h -> Heap.length h
  | Qwheel w -> Wheel.length w

let[@inline] q_min_priority = function
  | Qheap h -> Heap.min_priority h
  | Qwheel w -> Wheel.min_priority w

let[@inline] q_min_seq = function
  | Qheap h -> Heap.min_seq h
  | Qwheel w -> Wheel.min_seq w

let[@inline] q_pop_exn = function
  | Qheap h -> Heap.pop_exn h
  | Qwheel w -> Wheel.pop_exn w

let[@inline] q_push q ~priority ~seq ev =
  match q with
  | Qheap h -> Heap.push h ~priority ~seq ev
  | Qwheel w -> Wheel.push w ~priority ~seq ev

let ring_push t seq ev =
  let cap = Array.length t.ring in
  if t.len = cap then begin
    let capacity = max 16 (2 * cap) in
    let ring = Array.make capacity noop_event in
    let ring_seq = Array.make capacity 0 in
    for i = 0 to t.len - 1 do
      let slot = (t.head + i) land (cap - 1) in
      ring.(i) <- t.ring.(slot);
      ring_seq.(i) <- t.ring_seq.(slot)
    done;
    t.ring <- ring;
    t.ring_seq <- ring_seq;
    t.head <- 0
  end;
  let slot = (t.head + t.len) land (Array.length t.ring - 1) in
  t.ring.(slot) <- ev;
  t.ring_seq.(slot) <- seq;
  t.len <- t.len + 1

let ring_pop t =
  let ev = t.ring.(t.head) in
  t.ring.(t.head) <- noop_event;
  t.head <- (t.head + 1) land (Array.length t.ring - 1);
  t.len <- t.len - 1;
  ev

let[@inline] push_event t ~time ev =
  let seq = t.seq in
  t.seq <- seq + 1;
  if time <= t.now then ring_push t seq ev
  else q_push t.queue ~priority:time ~seq ev

let schedule_at t ~time f = push_event t ~time (Apply (f, ()))

let schedule_apply t ~delay f x =
  if delay < 0.0 then invalid_arg "Engine.schedule: negative delay";
  push_event t ~time:(t.now +. delay) (Apply (f, x))

let schedule t ~delay f = schedule_apply t ~delay f ()

let schedule_timer t ~delay f =
  if delay < 0.0 then invalid_arg "Engine.schedule_timer: negative delay";
  let tm = { live = true; fn = f } in
  push_event t ~time:(t.now +. delay) (Timer tm);
  fun () ->
    if tm.live then begin
      tm.live <- false;
      (* release the callback now; the tombstone is swept at pop *)
      tm.fn <- noop;
      t.dead <- t.dead + 1
    end

let fire t tm =
  let f = tm.fn in
  (* timers fire once: drop the closure as soon as it runs *)
  tm.live <- false;
  tm.fn <- noop;
  t.executed <- t.executed + 1;
  f ()

(* Execute the next live event no later than [limit]. The next event is
   the minimum of the queue front and the ring head by [(time, seq)];
   ring entries sit at the current time. *)
let rec exec_next t ~limit =
  if t.len > 0 then begin
    let heap_first =
      (not (q_is_empty t.queue))
      &&
      let hp = q_min_priority t.queue in
      hp < t.now
      || (hp = t.now && q_min_seq t.queue < t.ring_seq.(t.head))
    in
    if heap_first then exec_heap t ~limit
    else if t.now > limit then false
    else
      match ring_pop t with
      | Apply (f, x) ->
          t.executed <- t.executed + 1;
          f x;
          true
      | Timer tm ->
          if tm.live then begin
            fire t tm;
            true
          end
          else begin
            t.dead <- t.dead - 1;
            exec_next t ~limit
          end
  end
  else if not (q_is_empty t.queue) then exec_heap t ~limit
  else false

and exec_heap t ~limit =
  let time = q_min_priority t.queue in
  if time > limit then false
  else
    match q_pop_exn t.queue with
    | Apply (f, x) ->
        t.now <- time;
        t.executed <- t.executed + 1;
        f x;
        true
    | Timer tm ->
        if tm.live then begin
          t.now <- time;
          fire t tm;
          true
        end
        else begin
          t.dead <- t.dead - 1;
          exec_next t ~limit
        end

let step t = exec_next t ~limit:infinity

let run ?until t =
  let limit = match until with Some l -> l | None -> infinity in
  while exec_next t ~limit do
    ()
  done;
  match until with Some limit when limit > t.now -> t.now <- limit | _ -> ()

let pending t = q_length t.queue + t.len - t.dead

let executed t = t.executed
