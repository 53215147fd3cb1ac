(** Discrete-event simulation engine.

    The engine owns a virtual clock (in milliseconds, matching the
    paper's unit of account) and a queue of pending events ordered by
    [(time, insertion order)]: timed events wait in one 4-ary
    {!Heap}, and same-instant events ride a FIFO ring beside it. All
    simulated concurrency — fibers, mailboxes, network transit, disk
    writes, open-loop arrivals — bottoms out in [schedule]. Running the
    engine to quiescence is deterministic. *)

type t

(** [create ()] is a fresh engine with the clock at 0.0 ms. *)
val create : unit -> t

(** Current virtual time, in milliseconds. *)
val now : t -> float

(** [schedule t ~delay f] runs [f] at virtual time [now t +. delay].
    [delay] must be non-negative and not NaN. Events with [delay = 0]
    take a FIFO fast path that bypasses the time-ordered heap;
    execution order is identical either way. *)
val schedule : t -> delay:float -> (unit -> unit) -> unit

(** [schedule_apply t ~delay f x] is [schedule t ~delay (fun () -> f x)]
    without allocating the closure: the event holds [f] and [x]
    directly. Same ordering and validation as {!schedule}. *)
val schedule_apply : t -> delay:float -> ('a -> unit) -> 'a -> unit

(** [schedule_timer t ~delay f] is [schedule t ~delay f] returning a
    cancel handle. Cancelling before the timer fires guarantees [f]
    never runs and releases [f] immediately (its captured state becomes
    collectable); the queue slot itself is reclaimed lazily when it
    reaches the front. Cancelling twice, or after the timer fired, is a
    no-op. Cancelled timers do not count as executed events. *)
val schedule_timer : t -> delay:float -> (unit -> unit) -> unit -> unit

(** [schedule_at t ~time f] runs [f] at absolute virtual [time]; if
    [time] is in the past it runs at the current time.
    @raise Invalid_argument if [time] is NaN. *)
val schedule_at : t -> time:float -> (unit -> unit) -> unit

(** [run t] processes events until the queue is empty.
    @param until stop once the clock would pass this time; remaining
    events stay queued. *)
val run : ?until:float -> t -> unit

(** [step t] executes the single next event. Returns [false] if the
    queue was empty. One event can carry a fiber through several
    sleeps: a sleep whose wake-up would run next anyway continues in
    place (see {!sleep_through}), so a step may include a sleeper's
    later segments. [Fiber.run] is unaffected, since only its main
    fiber sets its result. *)
val step : t -> bool

(** [sleep_through t delay] is for [Fiber]'s sleep. It moves the clock
    to [now t +. delay] and returns [true] when an event at that time
    would provably run next: [delay >= 0.0], nothing is queued at or
    before that time, and the running [run] or [step] would not stop
    first. The caller then continues in place of that event. Otherwise
    it returns [false] and changes nothing. Sequence numbers are only
    ever compared, so skipping the event leaves the [(time, seq)] order
    of every other event as it was. *)
val sleep_through : t -> float -> bool

(** Whether nothing else is queued at the current instant: an event
    scheduled now with delay 0 would run next. *)
val idle_now : t -> bool

(** Number of live events waiting in the queue. Cancelled timers whose
    tombstones have not yet drained are excluded: the engine maintains
    [pending = queued slots - cancelled-but-undrained tombstones], so
    the count never inflates no matter how many timers are armed and
    cancelled without firing. *)
val pending : t -> int

(** Total number of events executed so far. *)
val executed : t -> int
