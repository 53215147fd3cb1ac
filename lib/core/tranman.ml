open Camelot_sim
open Camelot_mach
open State

type t = State.t

exception Unknown_transaction of Tid.t

(* ---------------------------------------------------------------- *)
(* Dispatch *)

(* The endpoint handler runs as a raw engine event and must not block:
   protocol responses are demultiplexed straight into the waiting
   coordinator's mailbox (the CornMan-style forwarding role), while
   requests that do real work — and may force the log — are handed to
   the worker pool. *)
let dispatch st msg =
  if tracing st then tracef st "recv" "%a" Protocol.pp msg;
  let tid = Protocol.tid msg in
  let to_pool handler =
    Thread_pool.submit (pool st) (fun () ->
        charge_cpu st;
        handler st msg)
  in
  (* The Paxos acceptor is its own role — Gray & Lamport run it as a
     separate process — so its phase 1/2 work gets a dedicated fiber
     rather than a worker-pool slot. Coordinators occupy pool threads
     for the whole commit, and at F = 0 the coordinator site is also
     the sole acceptor: routed through the pool, the phase-2a votes a
     commit is waiting on would queue behind the very commits waiting
     for them whenever commit concurrency reaches the pool size. *)
  let to_acceptor handler =
    Site.spawn st.site ~name:"paxos-acceptor" (fun () ->
        charge_cpu st;
        handler st msg)
  in
  let to_waiter () =
    match waiter st tid with
    | Some mb -> Mailbox.send mb msg
    | None -> ()
  in
  match msg with
  | Protocol.Vote _ | Protocol.Replicate_ack _ | Protocol.Refused _
  | Protocol.Paxos_accepted _ | Protocol.Paxos_promise _ ->
      to_waiter ()
  | Protocol.Status _ -> (
      match waiter st tid with
      | Some mb -> Mailbox.send mb msg
      | None -> to_pool Subordinate.handle_status)
  | Protocol.Outcome_ack { m_from; _ } -> (
      match find_family st tid with
      | None -> ()
      | Some fam -> Two_phase.note_outcome_ack st fam ~from:m_from)
  | Protocol.Prepare _ ->
      to_pool (fun st msg ->
          Subordinate.handle_prepare st msg ~takeover:Nonblocking.takeover
            ~paxos_takeover:Paxos_commit.takeover)
  | Protocol.Paxos_accept _ -> to_acceptor Subordinate.handle_paxos_accept
  | Protocol.Paxos_prepare _ -> to_acceptor Subordinate.handle_paxos_prepare
  | Protocol.Replicate _ -> to_pool Subordinate.handle_replicate
  | Protocol.Outcome _ -> to_pool Subordinate.handle_outcome
  | Protocol.Inquiry _ -> to_pool Subordinate.handle_inquiry
  | Protocol.Join_abort_quorum _ -> to_pool Subordinate.handle_join_abort_quorum
  | Protocol.Child_finish _ -> to_pool Subordinate.handle_child_finish

(* ---------------------------------------------------------------- *)
(* Construction *)

let start st =
  st.pool <- Some (Thread_pool.create st.site ~threads:st.config.threads);
  match st.endpoint with
  | Some ep -> Camelot_net.Lan.set_handler ep (dispatch st)
  | None ->
      let ep = Camelot_net.Lan.endpoint st.lan st.site (dispatch st) in
      st.endpoint <- Some ep;
      Hashtbl.replace st.directory (Site.id st.site) ep

let create site ~lan ~log ~directory ~config =
  let st =
    {
      site;
      lan;
      log;
      config;
      directory;
      endpoint = None;
      pool = None;
      families = Hashtbl.create 64;
      families_mutex = Sync.Mutex.create ();
      servers = Hashtbl.create 8;
      next_seq = 0;
      waiters = Hashtbl.create 16;
      stats =
        {
          n_begun = 0;
          n_committed = 0;
          n_aborted = 0;
          n_distributed = 0;
          n_takeovers = 0;
          n_inquiries = 0;
          n_heuristic = 0;
          n_heuristic_damage = 0;
        };
      (* disabled by default: the commit hot path must not pay for
         formatting; enable via [Trace.set_enabled (trace tm) true] *)
      trace = Trace.create ~enabled:false ();
    }
  in
  start st;
  st

let restart st =
  (* volatile state of the old incarnation is gone *)
  Hashtbl.reset st.families;
  Hashtbl.reset st.waiters;
  Hashtbl.reset st.servers;
  start st

let site st = st.site
let config st = st.config
let stats st = st.stats
let trace st = st.trace

(* ---------------------------------------------------------------- *)
(* TranMan requests: each is one IPC to the TranMan process and is
   served by a worker thread (the Figures 4/5 contention point). *)

(* Run a request on a worker thread and wait for the reply; exceptions
   (e.g. Unknown_transaction) travel back to the caller. *)
let tranman_down st reason =
  Rpc.Rpc_failure { callee = Site.id st.site; reason }

let on_pool st job =
  Rpc.local_ipc st.site;
  let group = Site.group st.site in
  if Fiber.Group.killed group then raise (tranman_down st "tranman site down");
  let inc = Site.incarnation st.site in
  let reply = Mailbox.create (engine st) in
  (* A site crash silences the worker pool: queued jobs are never
     served and in-service workers die without replying. A caller from
     another site (the inline half of a cross-site RPC) would block
     forever, so group death fails the request like a broken RPC. *)
  let hook =
    Fiber.Group.register group (fun () ->
        Mailbox.send reply (Error (tranman_down st "tranman site crashed")))
  in
  Thread_pool.submit (pool st) (fun () ->
      charge_cpu st;
      let r = match job () with v -> Ok v | exception e -> Error e in
      Fiber.Group.unregister group hook;
      Mailbox.send reply r);
  match Mailbox.recv reply with
  | Ok v -> v
  | Error e ->
      if (not (Site.alive st.site)) || Site.incarnation st.site <> inc then
        raise (tranman_down st "tranman site crashed")
      else raise e

let require_family st tid =
  match find_family st tid with
  | Some fam -> fam
  | None -> raise (Unknown_transaction tid)

let begin_transaction st =
  on_pool st (fun () ->
      let seq = st.next_seq in
      st.next_seq <- seq + 1;
      st.stats.n_begun <- st.stats.n_begun + 1;
      let tid = Tid.root ~origin:(me st) ~seq in
      ignore (new_family st ~root:tid ~role:Coordinator ~protocol:Protocol.Two_phase
              : family);
      if tracing st then tracef st "txn" "begin %a" Tid.pp tid;
      tid)

let begin_nested st ~parent =
  on_pool st (fun () ->
      let fam = require_family st parent in
      let pm = member st fam parent in
      let n = (Site.id st.site * 4096) + pm.mem_children in
      pm.mem_children <- pm.mem_children + 1;
      let tid = Tid.child parent ~n in
      ignore (member st fam tid : member);
      if tracing st then tracef st "txn" "begin nested %a" Tid.pp tid;
      tid)

(* Resolve a subtransaction: apply at local servers, push to the
   family's other sites (best effort; they also learn at prepare). *)
let finish_nested st fam tid outcome =
  let m = member st fam tid in
  if m.mem_resolved = None then begin
    m.mem_resolved <- Some outcome;
    List.iter
      (fun name ->
        match server_callbacks st name with
        | None -> ()
        | Some cb -> (
            Rpc.oneway_ipc st.site;
            match outcome with
            | Protocol.Committed -> cb.sv_subcommit tid
            | Protocol.Aborted -> cb.sv_abort tid))
      fam.f_servers;
    fan_out st ~dsts:fam.f_remote_sites
      (Protocol.Child_finish { m_tid = tid; m_outcome = outcome })
  end

let abort_unresolved_children st fam =
  (* deepest first, so a child's records retag before its parent's *)
  let pending = unresolved_children fam in
  let deepest_first =
    List.sort (fun a b -> Stdlib.compare (Tid.depth b) (Tid.depth a)) pending
  in
  List.iter (fun tid -> finish_nested st fam tid Protocol.Aborted) deepest_first

let commit st ?(protocol = Protocol.Two_phase) tid =
  if Tid.is_top tid then
    on_pool st (fun () ->
        let fam = require_family st tid in
        match fam.f_outcome with
        | Some o -> o
        | None ->
            abort_unresolved_children st fam;
            fam.f_protocol <- protocol;
            (match protocol with
            | Protocol.Two_phase -> Two_phase.coordinate st fam
            | Protocol.Nonblocking -> Nonblocking.coordinate st fam
            | Protocol.Paxos_commit -> Paxos_commit.coordinate st fam
            | Protocol.Short_commit -> Short_commit.coordinate st fam))
  else
    on_pool st (fun () ->
        let fam = require_family st tid in
        (* a subtransaction's own unresolved children abort with it
           committing: they never committed into it *)
        List.iter
          (fun child ->
            if Tid.is_ancestor tid child && not (Tid.equal tid child) then
              finish_nested st fam child Protocol.Aborted)
          (unresolved_children fam);
        finish_nested st fam tid Protocol.Committed;
        Protocol.Committed)

let abort st tid =
  ignore
    (on_pool st (fun () ->
         match find_family st tid with
         | None -> ()
         | Some fam ->
             if Tid.is_top tid then begin
               if fam.f_outcome = None then begin
                 abort_unresolved_children st fam;
                 ignore
                   (Two_phase.abort_distributed st fam ~subs:fam.f_remote_sites
                     : Protocol.outcome)
               end
             end
             else begin
               List.iter
                 (fun child ->
                   if Tid.is_ancestor tid child && not (Tid.equal tid child) then
                     finish_nested st fam child Protocol.Aborted)
                 (unresolved_children fam);
               finish_nested st fam tid Protocol.Aborted
             end)
      : unit)

let outcome st tid =
  match find_family st tid with None -> None | Some fam -> fam.f_outcome

(* Garbage-collect the descriptor of a finished transaction (after its
   End record, a real system reclaims the memory; the simulator keeps
   tombstones for convenient inspection unless told otherwise). After
   this, inquiries answer "unknown" — which is where the presumption
   earns its name. *)
let forget st tid =
  match find_family st tid with
  | None -> ()
  | Some fam ->
      if fam.f_outcome <> None then
        Sync.Mutex.with_lock st.families_mutex (fun () ->
            Hashtbl.remove st.families (family_key tid))

(* LU 6.2-style heuristic commit (paper §5): an operator resolves a
   blocked transaction by decree. Correctness is not guaranteed — if
   the real outcome later turns out to differ, the damage is counted in
   [stats.n_heuristic_damage] — but the locks are freed now. *)
let heuristic_resolve st tid outcome =
  on_pool st (fun () ->
      let fam = require_family st tid in
      match fam.f_outcome with
      | Some prior -> prior
      | None ->
          st.stats.n_heuristic <- st.stats.n_heuristic + 1;
          if tracing st then
            tracef st "heuristic" "%a resolved %a by operator" Tid.pp tid
              Protocol.pp_outcome outcome;
          (match outcome with
          | Protocol.Committed ->
              Subordinate.apply_commit st fam ~ack_to:(Tid.origin tid)
          | Protocol.Aborted -> Subordinate.apply_abort st fam);
          outcome)

(* ---------------------------------------------------------------- *)
(* Hooks *)

let register_server st cb = Hashtbl.replace st.servers cb.sv_name cb

let join st tid ~server =
  ignore
    (on_pool st (fun () ->
         let fam = find_or_join_family st tid in
         ignore (member st fam tid : member);
         if not (List.mem server fam.f_servers) then
           fam.f_servers <- server :: fam.f_servers;
         if fam.f_role = Subordinate then Subordinate.start_orphan_watchdog st fam;
         if tracing st then
           tracef st "txn" "%a joined by server %s" Tid.pp tid server)
      : unit)

let note_sites st tid sites =
  match find_family st tid with
  | None -> ()
  | Some fam ->
      List.iter
        (fun s ->
          if s <> me st && not (List.mem s fam.f_remote_sites) then
            fam.f_remote_sites <- s :: fam.f_remote_sites)
        sites

let status st tid = status_of_family st tid

(* ---------------------------------------------------------------- *)
(* Recovery: called by the recovery process after servers re-register.
   Volatile descriptors are rebuilt from the durable log; transactions
   that were prepared but undecided re-enter the blocked state and
   resolve through the normal inquiry/takeover machinery. *)

(* Protocol images for a checkpoint record: what a recovery starting at
   the checkpoint needs instead of the truncated records below it.

   The images are derived by replaying the log itself (seeded from the
   previous checkpoint's images), NOT by snapshotting the volatile
   family descriptors: protocol flags lag the log — a subordinate sets
   [f_prepared] only after its prepare force returns, so mid-force the
   record is already spooled while the flag is still false. A snapshot
   taken in that window would let truncation drop a Prepare record that
   nothing summarizes; replaying the records the checkpoint replaces
   captures them by construction, and makes recovery from the truncated
   log rebuild exactly what a full-log replay would have. *)
let image_apply (im : Record.family_image) = function
  | Record.Checkpoint _ -> im
  | Record.Update { u_server; _ } ->
      if List.mem u_server im.Record.fi_servers then im
      else { im with Record.fi_servers = u_server :: im.Record.fi_servers }
  | Record.Collecting { g_sites; g_protocol; _ } ->
      { im with Record.fi_prepared = true; fi_sites = g_sites; fi_protocol = g_protocol }
  | Record.Prepare { p_protocol; p_sites; p_acceptors; _ } ->
      {
        im with
        Record.fi_prepared = true;
        fi_protocol = p_protocol;
        fi_sites = (if p_sites <> [] then p_sites else im.Record.fi_sites);
        fi_acceptors =
          (if p_acceptors <> [] then p_acceptors else im.Record.fi_acceptors);
      }
  | Record.Paxos_promised { pp_ballot; _ } ->
      { im with Record.fi_pax_ballot = max pp_ballot im.Record.fi_pax_ballot }
  | Record.Paxos_accepted { pa_instance; pa_ballot; pa_vote; _ } ->
      {
        im with
        Record.fi_pax_ballot = max pa_ballot im.Record.fi_pax_ballot;
        fi_pax_accepted =
          (pa_instance, pa_ballot, pa_vote)
          :: List.filter
               (fun (i, _, _) -> i <> pa_instance)
               im.Record.fi_pax_accepted;
      }
  | Record.Replication { r_sites; r_update_sites; _ } ->
      {
        im with
        Record.fi_quorum = Record.Fq_commit;
        fi_sites = r_sites;
        fi_update_sites = r_update_sites;
      }
  | Record.Commit { c_sites; _ } ->
      { im with Record.fi_outcome = Some Protocol.Committed; fi_update_sites = c_sites }
  | Record.Abort _ -> { im with Record.fi_outcome = Some Protocol.Aborted }
  | Record.Refusal _ -> { im with Record.fi_quorum = Record.Fq_abort }
  | Record.End _ -> { im with Record.fi_ended = true }

let blank_image root =
  {
    Record.fi_tid = root;
    fi_protocol = Protocol.Two_phase;
    fi_prepared = false;
    fi_sites = [];
    fi_update_sites = [];
    fi_quorum = Record.Fq_none;
    fi_outcome = None;
    fi_servers = [];
    fi_ended = false;
    fi_acceptors = [];
    fi_pax_ballot = 0;
    fi_pax_accepted = [];
  }

let family_images st =
  let log = st.log in
  let base = Camelot_wal.Log.base_lsn log in
  let upto = Camelot_wal.Log.tail_lsn log in
  (* newest checkpoint at or above base (after a truncation it sits
     exactly at base, so this scan stays O(window)) *)
  let seed = ref None in
  let lsn = ref upto in
  while !seed = None && !lsn >= base do
    (match Camelot_wal.Log.get log !lsn with
    | Record.Checkpoint { ck_families; ck_active; _ } ->
        seed := Some (!lsn, ck_families, ck_active)
    | _ -> ());
    decr lsn
  done;
  let tbl : (int, Record.family_image) Hashtbl.t = Hashtbl.create 16 in
  let apply r =
    match r with
    | Record.Checkpoint _ -> ()
    | r ->
        let root = Tid.top (Record.tid r) in
        let k = Tid.key root in
        let im =
          match Hashtbl.find_opt tbl k with
          | Some im -> im
          | None -> blank_image root
        in
        Hashtbl.replace tbl k (image_apply im r)
  in
  let replay_from =
    match !seed with
    | None -> base
    | Some (ck_lsn, images, ck_active) ->
        List.iter
          (fun (im : Record.family_image) ->
            Hashtbl.replace tbl (Tid.key im.Record.fi_tid) im)
          images;
        (* the seeding checkpoint's in-flight updates carry server
           associations, like live update records *)
        List.iter (fun (u : Record.update) -> apply (Record.Update u)) ck_active;
        ck_lsn + 1
  in
  for lsn = replay_from to upto do
    apply (Camelot_wal.Log.get log lsn)
  done;
  let images = Hashtbl.fold (fun _ im acc -> im :: acc) tbl [] in
  List.sort (fun a b -> compare a.Record.fi_tid b.Record.fi_tid) images

let recover st =
  (* last-writer-wins reconstruction of per-family protocol state *)
  let replay (fam : family) = function
    | Record.Checkpoint _ -> ()
    | Record.Update { u_server; _ } ->
        (* re-associate the server so a later resolution reaches it
           (drop-locks, undo) — the volatile join list died in the
           crash *)
        if not (List.mem u_server fam.f_servers) then
          fam.f_servers <- u_server :: fam.f_servers
    | Record.Collecting { g_sites; g_protocol; _ } ->
        (* presumed commit (or short-commit): voting had begun; without
           a later outcome record this transaction must be aborted and
           remembered *)
        fam.f_prepared <- true;
        fam.f_sites <- g_sites;
        fam.f_protocol <- g_protocol
    | Record.Prepare { p_protocol; p_sites; p_acceptors; _ } ->
        fam.f_prepared <- true;
        fam.f_protocol <- p_protocol;
        if p_sites <> [] then fam.f_sites <- p_sites;
        if p_acceptors <> [] then fam.f_acceptors <- p_acceptors
    | Record.Paxos_promised { pp_ballot; _ } ->
        fam.f_pax_ballot <- max pp_ballot fam.f_pax_ballot;
        fam.f_protocol <- Protocol.Paxos_commit
    | Record.Paxos_accepted { pa_instance; pa_ballot; pa_vote; _ } ->
        fam.f_pax_ballot <- max pa_ballot fam.f_pax_ballot;
        fam.f_pax_accepted <-
          (pa_instance, pa_ballot, pa_vote)
          :: List.filter (fun (i, _, _) -> i <> pa_instance) fam.f_pax_accepted;
        fam.f_protocol <- Protocol.Paxos_commit
    | Record.Replication { r_sites; r_update_sites; _ } ->
        fam.f_quorum_side <- Q_commit;
        fam.f_sites <- r_sites;
        fam.f_update_sites <- r_update_sites
    | Record.Commit { c_sites; _ } ->
        fam.f_outcome <- Some Protocol.Committed;
        fam.f_update_sites <- c_sites
    | Record.Abort _ -> fam.f_outcome <- Some Protocol.Aborted
    | Record.Refusal _ -> fam.f_quorum_side <- Q_abort
    | Record.End _ ->
        fam.f_acks_pending <- [];
        fam.f_ended <- true
  in
  (* Find the newest durable checkpoint with one backward scan from the
     tail; everything below it is summarized by its family images (and
     may already have been truncated away). *)
  let base = Camelot_wal.Log.base_lsn st.log in
  let ck = ref None in
  let lsn = ref (Camelot_wal.Log.durable_lsn st.log) in
  while !ck = None && !lsn >= base do
    (match Camelot_wal.Log.get st.log !lsn with
    | Record.Checkpoint { ck_families; _ } -> ck := Some (!lsn, ck_families)
    | _ -> ());
    decr lsn
  done;
  let scan_from = match !ck with Some (l, _) -> l | None -> base in
  let ends = Hashtbl.create 16 in
  (* Seed descriptors from the checkpoint's family images: the state the
     truncated records below the checkpoint would have rebuilt. *)
  (match !ck with
  | None -> ()
  | Some (_, images) ->
      List.iter
        (fun (im : Record.family_image) ->
          let fam = find_or_join_family st im.Record.fi_tid in
          fam.f_protocol <- im.Record.fi_protocol;
          if im.Record.fi_prepared then fam.f_prepared <- true;
          if im.Record.fi_sites <> [] then fam.f_sites <- im.Record.fi_sites;
          if im.Record.fi_update_sites <> [] then
            fam.f_update_sites <- im.Record.fi_update_sites;
          (match im.Record.fi_quorum with
          | Record.Fq_none -> ()
          | Record.Fq_commit -> fam.f_quorum_side <- Q_commit
          | Record.Fq_abort -> fam.f_quorum_side <- Q_abort);
          (match im.Record.fi_outcome with
          | Some o -> fam.f_outcome <- Some o
          | None -> ());
          if im.Record.fi_acceptors <> [] then
            fam.f_acceptors <- im.Record.fi_acceptors;
          if im.Record.fi_pax_ballot > fam.f_pax_ballot then
            fam.f_pax_ballot <- im.Record.fi_pax_ballot;
          if im.Record.fi_pax_accepted <> [] then
            fam.f_pax_accepted <- im.Record.fi_pax_accepted;
          List.iter
            (fun s ->
              if not (List.mem s fam.f_servers) then
                fam.f_servers <- s :: fam.f_servers)
            im.Record.fi_servers;
          if im.Record.fi_ended then begin
            fam.f_acks_pending <- [];
            fam.f_ended <- true;
            Hashtbl.replace ends (Tid.family_key im.Record.fi_tid) ()
          end)
        images);
  Camelot_wal.Log.iter_durable_from st.log ~from:scan_from (fun _ r ->
      match r with
      | Record.End { e_tid } -> Hashtbl.replace ends (Tid.family_key e_tid) ()
      | _ -> ());
  Camelot_wal.Log.iter_durable_from st.log ~from:scan_from (fun _ r ->
      match r with
      | Record.Checkpoint { ck_active; _ } ->
          (* in-flight updates snapshotted at checkpoint time carry the
             same server associations as live update records *)
          List.iter
            (fun (u : Record.update) ->
              let fam = find_or_join_family st u.Record.u_tid in
              if not (List.mem u.Record.u_server fam.f_servers) then
                fam.f_servers <- u.Record.u_server :: fam.f_servers)
            ck_active
      | r ->
          let tid = Record.tid r in
          let fam = find_or_join_family st tid in
          replay fam r);
  let in_doubt = ref [] in
  Hashtbl.iter
    (fun key fam ->
      match fam.f_outcome with
      | Some Protocol.Committed
        when st.config.presumption = Presume_abort
             && fam.f_role = Coordinator
             && (not (Hashtbl.mem ends key))
             && fam.f_update_sites <> [] ->
          (* decided but not fully acknowledged: resume notification *)
          let subs = List.filter (fun s -> s <> me st) fam.f_update_sites in
          if subs <> [] then Two_phase.start_notify st fam ~update_subs:subs
      | Some Protocol.Aborted
        when (st.config.presumption = Presume_commit
             || fam.f_protocol = Protocol.Short_commit)
             && fam.f_role = Coordinator
             && not (Hashtbl.mem ends key) ->
          (* presumed commit (and short-commit, which presumes commit
             whatever the configuration): aborts are the acknowledged
             outcome *)
          let subs = List.filter (fun s -> s <> me st) fam.f_sites in
          if subs <> [] then
            Two_phase.start_notify ~outcome:Protocol.Aborted st fam ~update_subs:subs
      | Some _ -> ()
      | None ->
          if
            fam.f_role = Coordinator && fam.f_prepared
            && ((st.config.presumption = Presume_commit
                && fam.f_protocol = Protocol.Two_phase)
               || fam.f_protocol = Protocol.Short_commit)
          then begin
            (* a collecting record without an outcome: the decision was
               never made, so the transaction aborts — and must be
               remembered and acknowledged, or it would be presumed
               committed later (short-commit presumes commit whatever
               the configured presumption) *)
            resolve_family st fam Protocol.Aborted;
            ignore
              (Camelot_wal.Log.append st.log (Record.Abort { a_tid = fam.f_root })
                : int);
            let subs = List.filter (fun s -> s <> me st) fam.f_sites in
            if subs <> [] then
              Two_phase.start_notify ~outcome:Protocol.Aborted st fam
                ~update_subs:subs
          end
          else if fam.f_prepared || fam.f_quorum_side <> Q_none then
            in_doubt := fam.f_root :: !in_doubt
          else begin
            (* never prepared here and no quorum promise: this
               transaction can never commit (any commit requires a
               durable prepare/replication first), so presumed abort
               resolves it now — a blocked subordinate's inquiry then
               gets a decisive answer instead of St_active forever *)
            resolve_family st fam Protocol.Aborted;
            ignore
              (Camelot_wal.Log.append st.log (Record.Abort { a_tid = fam.f_root })
                : int)
          end)
    st.families;
  (* start the appropriate blocked-state watchdogs *)
  List.iter
    (fun tid ->
      match find_family st tid with
      | None -> ()
      | Some fam -> (
          fam.f_watchdog <- false;
          match fam.f_protocol with
          | Protocol.Nonblocking ->
              Subordinate.start_takeover_watchdog st fam
                ~takeover:Nonblocking.takeover
          | Protocol.Paxos_commit ->
              Subordinate.start_takeover_watchdog st fam
                ~takeover:Paxos_commit.takeover
          | Protocol.Two_phase | Protocol.Short_commit ->
              Subordinate.start_inquiry_watchdog st fam))
    !in_doubt;
  !in_doubt
