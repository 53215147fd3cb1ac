(* Internal shared state of a transaction manager: family/transaction
   descriptors, configuration, message plumbing, and the local-server
   operations (vote, drop locks, undo) that both commit protocols use.

   The public face of all this is [Tranman]; everything here is
   library-internal. *)

open Camelot_sim
open Camelot_mach

(* Which outcome an inquiry about a forgotten transaction implies
   (Mohan & Lindsay). Camelot uses presumed abort; presumed commit is
   implemented as an extension for the cost comparison: it saves the
   commit-acknowledgement round entirely, at the price of a forced
   "collecting" record at the coordinator before voting starts, and of
   acknowledged, forced abort records. *)
type presumption = Presume_abort | Presume_commit

(* The three §4.2 write-transaction protocol variants:
   - [Optimized]: subordinate drops locks before writing its commit
     record, the record is not forced, and the commit-ack is
     piggybacked (sent only once the record reaches the disk via a
     later force or the background flusher);
   - [Semi_optimized]: the commit record is forced, but the ack is
     still piggybacked;
   - [Unoptimized]: the record is forced and the ack is sent
     immediately as its own datagram. *)
type two_phase_variant = Optimized | Semi_optimized | Unoptimized

let pp_two_phase_variant ppf v =
  Format.pp_print_string ppf
    (match v with
    | Optimized -> "optimized"
    | Semi_optimized -> "semi-optimized"
    | Unoptimized -> "unoptimized")

type config = {
  mutable threads : int;  (* read at creation time only *)
  mutable two_phase_variant : two_phase_variant;
  mutable presumption : presumption;
  mutable multicast : bool;  (* coordinator->subordinates fan-out *)
  mutable read_only_optimization : bool;
  mutable vote_timeout_ms : float;
  mutable max_vote_retries : int;
  mutable outcome_retry_ms : float;
  mutable subordinate_timeout_ms : float;  (* silence before inquiry/takeover *)
  mutable takeover_retry_ms : float;  (* non-blocking: pause between takeover rounds *)
  mutable piggyback_delay_ms : float;  (* simulated wait for a ride on later traffic *)
  mutable commit_quorum : int option;  (* non-blocking: override majority *)
  mutable orphan_timeout_ms : float;
      (* a joined-but-never-prepared subordinate family inquires after
         this much silence: if the coordinator no longer knows the
         transaction (client crash), presumed abort frees the locks *)
  mutable unsafe_skip_prepare_force : bool;
      (* deliberate bug knob for the chaos explorer's self-test: spool
         the subordinate's prepare record instead of forcing it, so a
         crash between vote and outcome loses the prepared state *)
  mutable paxos_f : int;
      (* paxos commit: tolerated acceptor failures; the acceptor set is
         the first 2F+1 of coordinator :: participants. F = 0 keeps the
         sole acceptor co-located with the coordinator and collapses to
         2PC's message and force counts *)
}

let default_config ?(threads = 5) () =
  {
    threads;
    two_phase_variant = Optimized;
    presumption = Presume_abort;
    multicast = false;
    read_only_optimization = true;
    vote_timeout_ms = 200.0;
    max_vote_retries = 3;
    outcome_retry_ms = 400.0;
    subordinate_timeout_ms = 1500.0;
    takeover_retry_ms = 500.0;
    piggyback_delay_ms = 25.0;
    commit_quorum = None;
    orphan_timeout_ms = 10_000.0;
    unsafe_skip_prepare_force = false;
    paxos_f = 0;
  }

(* An independent mutable copy (each site owns its configuration). *)
let copy_config c = { c with threads = c.threads }

(* What a data server plugs into its local transaction manager. The
   server library implements these against real object storage; tests
   may use stubs. *)
type server_callbacks = {
  sv_name : string;
  sv_vote : Tid.t -> Protocol.vote;
      (* prepare: flush nothing (updates were spooled at operation
         time), just answer whether the family may commit here and
         whether it was read-only *)
  sv_commit : Tid.t -> unit;  (* family committed: drop locks, discard undo *)
  sv_abort : Tid.t -> unit;  (* undo the subtree rooted at tid, drop its locks *)
  sv_subcommit : Tid.t -> unit;  (* nested commit: anti-inherit to parent *)
  sv_release : Tid.t -> unit;
      (* short-commit early release: drop the family's locks but KEEP
         its undo information — the outcome is still undecided *)
}

(* Per-transaction descriptor inside a family (paper §3.4: a hash table
   of transaction descriptors hangs off each family descriptor). *)
type member = {
  mem_tid : Tid.t;
  mutable mem_resolved : Protocol.outcome option;  (* nested commit/abort *)
  mutable mem_children : int;  (* child naming counter *)
}

type role = Coordinator | Subordinate

(* Which quorum this site has joined for a non-blocking transaction
   (change 4 of §3.3: never both). *)
type quorum_side = Q_none | Q_commit | Q_abort

type family = {
  f_root : Tid.t;
  f_role : role;
  f_mutex : Sync.Mutex.t;  (* per-family lock, paper §3.4 *)
  f_members : (Tid.t, member) Hashtbl.t;
  mutable f_servers : string list;  (* local servers that joined *)
  mutable f_remote_sites : Site.id list;  (* coordinator: where it spread *)
  mutable f_protocol : Protocol.commit_protocol;
  mutable f_sites : Site.id list;  (* non-blocking: full participant list *)
  mutable f_commit_quorum : int;  (* non-blocking: replication quorum *)
  mutable f_prepared : bool;  (* subordinate voted yes / coordinator logged *)
  mutable f_read_only_done : bool;
      (* read-only subordinate: voted, dropped locks, forgot — answers
         inquiries "unknown" but may still be drafted into a quorum *)
  mutable f_update_sites : Site.id list;  (* non-blocking replication domain *)
  mutable f_quorum_side : quorum_side;
  mutable f_outcome : Protocol.outcome option;
  mutable f_acks_pending : Site.id list;  (* coordinator: commit-acks awaited *)
  mutable f_ended : bool;  (* an End record was written: fully forgotten *)
  mutable f_watchdog : bool;  (* a timeout watcher is running *)
  mutable f_orphan_watch : bool;  (* an orphan watcher is running *)
  mutable f_acceptors : Site.id list;  (* paxos: the 2F+1 acceptor set *)
  mutable f_pax_ballot : int;
      (* paxos acceptor: highest ballot promised or accepted; 0 is the
         participants' own vote ballot, takeovers go higher *)
  mutable f_pax_accepted : (Site.id * int * Protocol.vote) list;
      (* paxos acceptor: per-instance (participant, ballot, vote)
         acceptances, newest ballot wins per instance *)
}

type stats = {
  mutable n_begun : int;
  mutable n_committed : int;
  mutable n_aborted : int;
  mutable n_distributed : int;
  mutable n_takeovers : int;
  mutable n_inquiries : int;
  mutable n_heuristic : int;  (* operator-resolved blocked transactions *)
  mutable n_heuristic_damage : int;  (* ...that contradicted the real outcome *)
}

type t = {
  site : Site.t;
  lan : Camelot_net.Lan.t;
  log : Record.t Camelot_wal.Log.t;
  config : config;
  directory : (Site.id, Protocol.t Camelot_net.Lan.endpoint) Hashtbl.t;
  mutable endpoint : Protocol.t Camelot_net.Lan.endpoint option;
  mutable pool : Thread_pool.t option;
  families : (int, family) Hashtbl.t;  (* keyed by Tid.family_key *)
  families_mutex : Sync.Mutex.t;
  servers : (string, server_callbacks) Hashtbl.t;
  mutable next_seq : int;
  waiters : (int, Protocol.t Mailbox.t) Hashtbl.t;  (* keyed by Tid.family_key *)
  stats : stats;
  trace : Trace.t;
}

let engine st = Site.engine st.site
let model st = Site.model st.site
let me st = Site.id st.site

let tracing st = Trace.enabled st.trace

let tracef st tag fmt = Trace.record st.trace (engine st) ~tag fmt

let pool st =
  match st.pool with
  | Some p -> p
  | None -> invalid_arg "Tranman: not started"

(* ------------------------------------------------------------------ *)
(* CPU accounting *)

(* Every protocol action costs TranMan CPU; a small jitter component
   models OS scheduling noise (the paper's measured variances dwarf the
   primitive sums even when the network is idle). *)
let charge_cpu st =
  let m = model st in
  let base = m.Cost_model.tranman_cpu_ms in
  let jitter = Rng.exponential (Site.rng st.site) ~mean:(0.2 *. base) in
  Site.cpu_use st.site (base +. jitter)

(* ------------------------------------------------------------------ *)
(* Families *)

let family_key tid = Tid.family_key tid

let find_family st tid = Hashtbl.find_opt st.families (family_key tid)

let new_family st ~root ~role ~protocol =
  let fam =
    {
      f_root = root;
      f_role = role;
      f_mutex = Sync.Mutex.create ();
      f_members = Hashtbl.create 8;
      f_servers = [];
      f_remote_sites = [];
      f_protocol = protocol;
      f_sites = [];
      f_commit_quorum = 0;
      f_prepared = false;
      f_read_only_done = false;
      f_update_sites = [];
      f_quorum_side = Q_none;
      f_outcome = None;
      f_acks_pending = [];
      f_ended = false;
      f_watchdog = false;
      f_orphan_watch = false;
      f_acceptors = [];
      f_pax_ballot = 0;
      f_pax_accepted = [];
    }
  in
  Hashtbl.replace fam.f_members root
    { mem_tid = root; mem_resolved = None; mem_children = 0 };
  Sync.Mutex.with_lock st.families_mutex (fun () ->
      Hashtbl.replace st.families (family_key root) fam);
  fam

(* Find the family, creating a subordinate-side descriptor if this is
   the first we hear of it (a remote operation or a prepare arriving). *)
let find_or_join_family st tid =
  match find_family st tid with
  | Some fam -> fam
  | None ->
      let role = if Tid.origin tid = me st then Coordinator else Subordinate in
      new_family st ~root:(Tid.top tid) ~role ~protocol:Protocol.Two_phase

let member st fam tid =
  match Hashtbl.find_opt fam.f_members tid with
  | Some m -> m
  | None ->
      let m = { mem_tid = tid; mem_resolved = None; mem_children = 0 } in
      Hashtbl.replace fam.f_members tid m;
      ignore st;
      m

(* Is every proper descendant of [root] resolved? Top-level commit
   requires it. *)
let unresolved_children fam =
  Hashtbl.fold
    (fun tid m acc ->
      if (not (Tid.is_top tid)) && m.mem_resolved = None then tid :: acc else acc)
    fam.f_members []

(* ------------------------------------------------------------------ *)
(* Messaging *)

let endpoint_of st site_id = Hashtbl.find_opt st.directory site_id

(* Message accounting hook: the shootout experiment and the
   message-count conformance test install one to tally datagrams per
   transaction. Fires once per destination, for unicast, piggybacked
   and multicast sends alike. *)
let on_send : (src:Site.id -> dst:Site.id -> Protocol.t -> unit) option ref =
  ref None

let count_send st ~dst msg =
  match !on_send with
  | None -> ()
  | Some f -> f ~src:(Site.id st.site) ~dst msg

let send st ~dst msg =
  match endpoint_of st dst with
  | None -> if tracing st then tracef st "send" "no endpoint for site %d" dst
  | Some ep ->
      if tracing st then tracef st "send" "-> %d: %a" dst Protocol.pp msg;
      count_send st ~dst msg;
      Camelot_net.Lan.send st.lan ~src:st.site ep msg

let send_piggybacked st ~dst msg =
  match endpoint_of st dst with
  | None -> ()
  | Some ep ->
      if tracing st then
        tracef st "send" "-> %d (piggyback): %a" dst Protocol.pp msg;
      count_send st ~dst msg;
      Camelot_net.Lan.send_piggybacked st.lan ~src:st.site ep msg

(* Coordinator fan-out: one multicast or a serialized train of unicasts
   — the §4.2/§6 experimental knob. *)
let fan_out st ~dsts msg =
  if st.config.multicast then begin
    let eps = List.filter_map (endpoint_of st) dsts in
    if tracing st then
      tracef st "send" "multicast -> [%s]: %a"
        (String.concat "," (List.map string_of_int dsts))
        Protocol.pp msg;
    List.iter (fun dst -> count_send st ~dst msg) dsts;
    Camelot_net.Lan.multicast st.lan ~src:st.site eps msg
  end
  else List.iter (fun dst -> send st ~dst msg) dsts

(* Response routing: a coordinator (original or takeover) registers a
   mailbox; the dispatcher drops votes/acks/status replies into it. *)
let register_waiter st tid =
  let mb = Mailbox.create (engine st) in
  Hashtbl.replace st.waiters (family_key tid) mb;
  mb

let unregister_waiter st tid = Hashtbl.remove st.waiters (family_key tid)

let waiter st tid = Hashtbl.find_opt st.waiters (family_key tid)

(* ------------------------------------------------------------------ *)
(* Log plumbing *)

let log_append st record = Camelot_wal.Log.append st.log record

let log_force st =
  if tracing st then tracef st "log" "force";
  Camelot_wal.Log.force st.log

let log_append_force st record =
  let lsn = Camelot_wal.Log.append st.log record in
  log_force st;
  lsn

(* ------------------------------------------------------------------ *)
(* Local server operations *)

let server_callbacks st name = Hashtbl.find_opt st.servers name

(* Ask every joined local server for its vote, charging one local IPC
   each (Figure 1, step 8). Returns the combined vote. *)
let vote_local_servers st fam =
  let tid = fam.f_root in
  let combine acc vote =
    match (acc, vote) with
    | Protocol.Vote_no, _ | _, Protocol.Vote_no -> Protocol.Vote_no
    | Protocol.Vote_yes { read_only = a }, Protocol.Vote_yes { read_only = b } ->
        Protocol.Vote_yes { read_only = a && b }
  in
  List.fold_left
    (fun acc name ->
      match server_callbacks st name with
      | None -> Protocol.Vote_no
      | Some cb ->
          Rpc.local_ipc st.site;
          combine acc (cb.sv_vote tid))
    (Protocol.Vote_yes { read_only = true })
    fam.f_servers

(* Tell every joined local server to drop the family's locks (Figure 1,
   step 11: a one-way message each). *)
let drop_local_locks st fam =
  let tid = fam.f_root in
  List.iter
    (fun name ->
      match server_callbacks st name with
      | None -> ()
      | Some cb ->
          Rpc.oneway_ipc st.site;
          cb.sv_commit tid)
    fam.f_servers

(* Short-commit early release: drop the family's locks at every joined
   local server while keeping undo information (the decision is still
   out; an abort must still restore). *)
let release_local_locks st fam =
  let tid = fam.f_root in
  List.iter
    (fun name ->
      match server_callbacks st name with
      | None -> ()
      | Some cb ->
          Rpc.oneway_ipc st.site;
          cb.sv_release tid)
    fam.f_servers

(* Undo the family's local effects. *)
let abort_local st fam =
  let tid = fam.f_root in
  List.iter
    (fun name ->
      match server_callbacks st name with
      | None -> ()
      | Some cb ->
          Rpc.oneway_ipc st.site;
          cb.sv_abort tid)
    fam.f_servers

(* ------------------------------------------------------------------ *)
(* Status *)

let status_of_family st tid : Protocol.status =
  match find_family st tid with
  | None -> Protocol.St_unknown
  | Some fam -> (
      match fam.f_outcome with
      | Some Protocol.Committed -> Protocol.St_committed
      | Some Protocol.Aborted -> Protocol.St_aborted
      | None -> (
          match fam.f_quorum_side with
          | Q_commit -> Protocol.St_replicated
          | Q_abort -> Protocol.St_refused
          | Q_none ->
              if fam.f_read_only_done then Protocol.St_unknown
              else if fam.f_prepared then Protocol.St_prepared
              else Protocol.St_active))

(* Mark resolved; the descriptor is retained as a tombstone so that
   duplicate messages can be answered idempotently. *)
let resolve_family st fam outcome =
  if fam.f_outcome = None then begin
    fam.f_outcome <- Some outcome;
    (match outcome with
    | Protocol.Committed -> st.stats.n_committed <- st.stats.n_committed + 1
    | Protocol.Aborted -> st.stats.n_aborted <- st.stats.n_aborted + 1);
    if tracing st then
      tracef st "txn" "%a resolved: %a" Tid.pp fam.f_root Protocol.pp_outcome outcome
  end

(* The quorum domain of a non-blocking transaction: the sites that hold
   (or will hold) log records for it — update sites plus coordinator. *)
let majority n = (n / 2) + 1

let nb_quorum st ~domain_size =
  match st.config.commit_quorum with
  | Some q -> max 1 (min q domain_size)
  | None -> majority domain_size
