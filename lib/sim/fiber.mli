(** Cooperative fibers on top of the event engine.

    A fiber is a simulated thread of control: it runs OCaml code in
    direct style and may block on virtual time ([sleep]) or on
    arbitrary wakeups ([suspend], used by mailboxes, locks, disks, the
    network). Fibers are implemented with OCaml 5 effect handlers; they
    never run in parallel, so no real synchronization is needed and
    simulations are deterministic.

    Every fiber may belong to a {!Group}. Killing a group cancels all
    its blocked fibers at their next suspension point — this is how
    site crashes are modelled. *)

(** Raised inside a fiber when its group is killed while it is blocked. *)
exception Cancelled

(** A resumer completes a pending {!suspend} exactly once. *)
type 'a resumer

(** [resume r v] wakes the suspended fiber with [v]. Ignored if the
    fiber was already resumed or cancelled. *)
val resume : 'a resumer -> ('a, exn) result -> unit

(** Whether the suspended fiber is still waiting (not yet resumed, not
    cancelled by its group). Wait queues use this to skip dead entries
    so they never hand a permit or a message to a cancelled fiber. *)
val is_pending : 'a resumer -> bool

module Group : sig
  (** A kill-switch shared by a set of fibers (e.g. all processes of
      one simulated site incarnation). It holds at most 2{^22} blocked
      fibers and hooks at once; blocking or registering past that
      raises [Failure]. *)
  type t

  val create : unit -> t

  (** [kill t] cancels every fiber of the group currently blocked in
      [sleep]/[suspend] and prevents queued-but-unstarted fibers of the
      group from starting. Idempotent. *)
  val kill : t -> unit

  val killed : t -> bool

  (** [register t hook] runs [hook] once when the group is killed (or
      never, if {!unregister}ed first); returns a handle for
      {!unregister}. This is how non-member fibers blocked on a reply
      from the group observe its death. Registering on an
      already-killed group does {e not} run the hook — check
      {!killed} first.
      @raise Failure if the group has handed out more registrations
      than a handle can encode (2{^40} on a 64-bit host). *)
  val register : t -> (unit -> unit) -> int

  (** [unregister t h] drops the hook registered as [h]. A stale
      handle — its hook already unregistered, or run by a kill — is a
      no-op, even once its slot holds a newer entry. *)
  val unregister : t -> int -> unit
end

(** [spawn engine fn] queues [fn] to start as a fiber at the current
    virtual time.
    @param group kill-switch the fiber joins for all its blocking calls
    @param name used in crash reports
    @param on_exn called if [fn] raises (other than [Cancelled]);
      default prints a warning to stderr. *)
val spawn :
  Engine.t ->
  ?group:Group.t ->
  ?name:string ->
  ?on_exn:(exn -> unit) ->
  (unit -> unit) ->
  unit

(** [run engine fn] spawns [fn], drives the engine until [fn] completes
    (other fibers may still be live) and returns [fn]'s result.
    @raise Failure if the queue drains with the fiber still blocked
    (deadlock). *)
val run : Engine.t -> (unit -> 'a) -> 'a

(** Block the calling fiber for [d] milliseconds of virtual time.
    When the wake-up would be the next event anyway (nothing else is
    queued at or before [now + d], and the running [Engine.run] or
    [Engine.step] would not stop first), the fiber continues in place:
    the clock moves to [now + d] and no event is queued. Otherwise a
    timer wakes it; that timer continues the fiber directly when
    nothing else is queued at its instant, and queues a same-instant
    hop when something is. Either way the fiber runs exactly where the
    always-queued path would have run it.
    A negative or NaN [d] raises [Invalid_argument] out of the
    [Engine.run] or [Engine.step] that is running the fiber. *)
val sleep : float -> unit

(** Reschedule the calling fiber at the current time, letting other
    ready events run first. [yield] is [sleep 0.0]: a no-op when no
    other event is pending at the current instant. *)
val yield : unit -> unit

(** Current virtual time as seen by the calling fiber. *)
val now : unit -> float

(** [suspend register] blocks until the resumer that [register]
    receives is invoked. [register] runs before blocking and typically
    stores the resumer in some wait queue. If the fiber's group is
    killed first, the fiber raises {!Cancelled} instead. *)
val suspend : ('a resumer -> unit) -> 'a

(** [suspend_with register x] is [suspend (register x)] without
    building that closure: wait queues pass a toplevel [register] and
    their own state as [x], so blocking on them allocates nothing
    beyond the resumer. *)
val suspend_with : ('b -> 'a resumer -> unit) -> 'b -> 'a

(** The engine driving the calling fiber. Lets library code schedule
    raw events without threading the engine everywhere. *)
val engine : unit -> Engine.t
