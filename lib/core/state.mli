(** Internal shared state of a transaction manager.

    Everything here is plumbing common to the commit protocols and the
    dispatcher; the supported public surface is {!Tranman}. The types
    are exposed concretely because {!Two_phase}, {!Nonblocking},
    {!Subordinate} and {!Tranman} all manipulate them, and because
    tests and experiments tune {!config} fields directly. *)

open Camelot_sim
open Camelot_mach

(** Which outcome an inquiry about a forgotten transaction implies
    (Mohan & Lindsay). Camelot uses [Presume_abort]; [Presume_commit]
    is implemented as an extension: commit acknowledgements disappear,
    but the coordinator forces a collecting record before voting and
    aborts become forced and acknowledged. *)
type presumption = Presume_abort | Presume_commit

(** The three §4.2 write-transaction protocol variants. [Optimized]:
    the subordinate drops locks before writing its commit record, the
    record is not forced, the ack is piggybacked once the record is
    durable. [Semi_optimized]: record forced, ack still piggybacked.
    [Unoptimized]: record forced, ack sent immediately as its own
    datagram. *)
type two_phase_variant = Optimized | Semi_optimized | Unoptimized

val pp_two_phase_variant : Format.formatter -> two_phase_variant -> unit

(** Per-TranMan configuration. All fields are mutable so experiments
    can flip knobs; [threads] is read once at creation. *)
type config = {
  mutable threads : int;
  mutable two_phase_variant : two_phase_variant;
  mutable presumption : presumption;
  mutable multicast : bool;
  mutable read_only_optimization : bool;
  mutable vote_timeout_ms : float;
  mutable max_vote_retries : int;
  mutable outcome_retry_ms : float;
  mutable subordinate_timeout_ms : float;
  mutable takeover_retry_ms : float;
  mutable piggyback_delay_ms : float;
  mutable commit_quorum : int option;
  mutable orphan_timeout_ms : float;
  mutable unsafe_skip_prepare_force : bool;
      (** deliberate bug knob for the chaos explorer's self-test: spool
          the prepare record instead of forcing it *)
  mutable paxos_f : int;
      (** paxos commit: tolerated acceptor failures. The acceptor set is
          the first 2F+1 of coordinator :: participants; [0] keeps the
          sole acceptor co-located with the coordinator and collapses to
          2PC's message and force counts. *)
}

val default_config : ?threads:int -> unit -> config

(** An independent mutable copy (each site owns its configuration). *)
val copy_config : config -> config

(** What a data server plugs into its local transaction manager. *)
type server_callbacks = {
  sv_name : string;
  sv_vote : Tid.t -> Protocol.vote;
  sv_commit : Tid.t -> unit;
  sv_abort : Tid.t -> unit;
  sv_subcommit : Tid.t -> unit;
  sv_release : Tid.t -> unit;
      (** short-commit early release: drop the family's locks but keep
          its undo information (the outcome is still undecided) *)
}

(** Per-transaction descriptor inside a family. *)
type member = {
  mem_tid : Tid.t;
  mutable mem_resolved : Protocol.outcome option;
  mutable mem_children : int;
}

type role = Coordinator | Subordinate

(** Which quorum this site joined for a non-blocking transaction
    (§3.3 change 4: never both). *)
type quorum_side = Q_none | Q_commit | Q_abort

(** The family descriptor (§3.4): one per transaction family known at
    this site, protected by its own lock. *)
type family = {
  f_root : Tid.t;
  f_role : role;
  f_mutex : Sync.Mutex.t;
  f_members : (Tid.t, member) Hashtbl.t;
  mutable f_servers : string list;
  mutable f_remote_sites : Site.id list;
  mutable f_protocol : Protocol.commit_protocol;
  mutable f_sites : Site.id list;
  mutable f_commit_quorum : int;
  mutable f_prepared : bool;
  mutable f_read_only_done : bool;
  mutable f_update_sites : Site.id list;
  mutable f_quorum_side : quorum_side;
  mutable f_outcome : Protocol.outcome option;
  mutable f_acks_pending : Site.id list;
  mutable f_ended : bool;  (** an End record was written: fully forgotten *)
  mutable f_watchdog : bool;
  mutable f_orphan_watch : bool;
  mutable f_acceptors : Site.id list;  (** paxos: the 2F+1 acceptor set *)
  mutable f_pax_ballot : int;
      (** paxos acceptor: highest promised/accepted ballot (0 = the
          participants' own vote ballot) *)
  mutable f_pax_accepted : (Site.id * int * Protocol.vote) list;
      (** paxos acceptor: (instance, ballot, vote) acceptances *)
}

type stats = {
  mutable n_begun : int;
  mutable n_committed : int;
  mutable n_aborted : int;
  mutable n_distributed : int;
  mutable n_takeovers : int;
  mutable n_inquiries : int;
  mutable n_heuristic : int;  (** operator-resolved blocked transactions *)
  mutable n_heuristic_damage : int;
      (** heuristic decisions later contradicted by the real outcome *)
}

type t = {
  site : Site.t;
  lan : Camelot_net.Lan.t;
  log : Record.t Camelot_wal.Log.t;
  config : config;
  directory : (Site.id, Protocol.t Camelot_net.Lan.endpoint) Hashtbl.t;
  mutable endpoint : Protocol.t Camelot_net.Lan.endpoint option;
  mutable pool : Thread_pool.t option;
  families : (int, family) Hashtbl.t;  (** keyed by {!Tid.family_key} *)
  families_mutex : Sync.Mutex.t;
  servers : (string, server_callbacks) Hashtbl.t;
  mutable next_seq : int;
  waiters : (int, Protocol.t Mailbox.t) Hashtbl.t;
      (** keyed by {!Tid.family_key} *)
  stats : stats;
  trace : Trace.t;
}

val engine : t -> Engine.t
val model : t -> Cost_model.t

(** This site's id. *)
val me : t -> Site.id

(** Whether this site's trace is recording. Guard every {!tracef} call
    site with it ([if tracing st then tracef st ...]): an unguarded call
    builds its format closures even when the trace is off. *)
val tracing : t -> bool

(** [tracef st tag fmt ...] records a formatted message in this site's
    trace. *)
val tracef : t -> string -> ('a, Format.formatter, unit, unit) format4 -> 'a

(** The worker pool. @raise Invalid_argument if not started. *)
val pool : t -> Thread_pool.t

(** Charge TranMan CPU for one protocol action (with a small
    exponential jitter modelling OS scheduling noise). *)
val charge_cpu : t -> unit

(** {1 Families} *)

val family_key : Tid.t -> int
val find_family : t -> Tid.t -> family option
val new_family : t -> root:Tid.t -> role:role -> protocol:Protocol.commit_protocol -> family

(** Find the family, creating a subordinate-side descriptor on first
    contact. *)
val find_or_join_family : t -> Tid.t -> family

val member : t -> family -> Tid.t -> member

(** Proper descendants of the root not yet committed or aborted. *)
val unresolved_children : family -> Tid.t list

(** {1 Messaging} *)

(** Message accounting hook: installed by the shootout experiment and
    the message-count conformance test to tally datagrams. Fires once
    per destination for unicast, piggybacked and multicast sends. *)
val on_send : (src:Site.id -> dst:Site.id -> Protocol.t -> unit) option ref

val send : t -> dst:Site.id -> Protocol.t -> unit
val send_piggybacked : t -> dst:Site.id -> Protocol.t -> unit

(** Serialized unicasts, or one multicast when configured. *)
val fan_out : t -> dsts:Site.id list -> Protocol.t -> unit

val register_waiter : t -> Tid.t -> Protocol.t Mailbox.t
val unregister_waiter : t -> Tid.t -> unit
val waiter : t -> Tid.t -> Protocol.t Mailbox.t option

(** {1 Log} *)

val log_append : t -> Record.t -> Camelot_wal.Log.lsn
val log_force : t -> unit
val log_append_force : t -> Record.t -> Camelot_wal.Log.lsn

(** {1 Local servers} *)

val server_callbacks : t -> string -> server_callbacks option

(** Combined vote of every joined local server (one IPC each). *)
val vote_local_servers : t -> family -> Protocol.vote

(** One-way drop-locks message to every joined local server. *)
val drop_local_locks : t -> family -> unit

(** Short-commit early release: drop the family's locks at every
    joined local server, keeping undo information. *)
val release_local_locks : t -> family -> unit

(** Undo the family at every joined local server. *)
val abort_local : t -> family -> unit

(** {1 Status and resolution} *)

val status_of_family : t -> Tid.t -> Protocol.status

(** Mark resolved (idempotent); updates statistics. The descriptor
    stays as a tombstone for duplicate-message answers. *)
val resolve_family : t -> family -> Protocol.outcome -> unit

val majority : int -> int

(** Configured or majority commit-quorum size over a domain. *)
val nb_quorum : t -> domain_size:int -> int
