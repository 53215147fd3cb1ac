(* Subordinate-side handling of commit-protocol messages, shared by all
   four protocols: voting on a prepare, writing replication records,
   the Paxos Commit acceptor (phase 1b/2b with its force discipline),
   short-commit's early lock release, applying outcomes under the three
   write-variants, answering status inquiries, and the timeout-driven
   escape hatches (inquiry loop for 2PC/short-commit, takeover hooks
   for non-blocking and Paxos Commit). *)

open Camelot_sim
open Camelot_mach
open State

(* Chaos fault points (no-ops unless an explorer is attached). *)
let p_prepare_forced = Camelot_chaos.register "sub.prepare.forced"
let p_vote_sent = Camelot_chaos.register "sub.vote.sent"
let p_commit_applied = Camelot_chaos.register "sub.commit.applied"
let p_abort_applied = Camelot_chaos.register "sub.abort.applied"
let p_replication_forced = Camelot_chaos.register "sub.replication.forced"
let p_accept_forced = Camelot_chaos.register "paxos.accept.forced"
let p_ballot_conflict = Camelot_chaos.register "paxos.ballot.conflict"
let p_release_early = Camelot_chaos.register "short.release.early"

(* --------------------------------------------------------------- *)
(* Applying a decided outcome at a subordinate *)

(* Commit locally under the configured §4.2 variant. Returns once the
   subordinate's part of the completion path is done; ack traffic and
   lazy log writes continue in background fibers. *)
let apply_commit st fam ~ack_to =
  Camelot_chaos.point ~site:(me st) p_commit_applied;
  let tid = fam.f_root in
  let coordinator = ack_to in
  let ack = Protocol.Outcome_ack { m_tid = tid; m_from = me st } in
  let commit_rec = Record.Commit { c_tid = tid; c_sites = [] } in
  resolve_family st fam Protocol.Committed;
  if
    (fam.f_protocol = Protocol.Two_phase
    && st.config.presumption = Presume_commit)
    || fam.f_protocol = Protocol.Short_commit
  then begin
    (* presumed commit — and short-commit, whose commit notices travel
       unacknowledged by construction: no acknowledgement exists; the
       commit record need never be forced (an inquiry to a forgotten
       coordinator presumes commit anyway) *)
    drop_local_locks st fam;
    ignore (log_append st commit_rec : int)
  end
  else
  match st.config.two_phase_variant with
  | Optimized ->
      (* locks drop immediately; the commit record is spooled and the
         ack waits until some later force or the flusher lands it *)
      drop_local_locks st fam;
      let lsn = log_append st commit_rec in
      Site.spawn st.site ~name:"commit-ack" (fun () ->
          Camelot_wal.Log.wait_durable st.log lsn;
          send_piggybacked st ~dst:coordinator ack)
  | Semi_optimized ->
      ignore (log_append_force st commit_rec : int);
      drop_local_locks st fam;
      Site.spawn st.site ~name:"commit-ack" (fun () ->
          Fiber.sleep st.config.piggyback_delay_ms;
          send_piggybacked st ~dst:coordinator ack)
  | Unoptimized ->
      ignore (log_append_force st commit_rec : int);
      drop_local_locks st fam;
      send st ~dst:coordinator ack

let apply_abort st fam =
  Camelot_chaos.point ~site:(me st) p_abort_applied;
  resolve_family st fam Protocol.Aborted;
  if
    ((fam.f_protocol = Protocol.Two_phase
     && st.config.presumption = Presume_commit)
    || fam.f_protocol = Protocol.Short_commit)
    && fam.f_prepared
  then begin
    (* presumed commit — and short-commit, where a forgotten
       coordinator implies commit: the abort must survive a crash (a
       lost abort record would later be presumed committed) and must be
       acknowledged so the coordinator may forget *)
    ignore (log_append_force st (Record.Abort { a_tid = fam.f_root }) : int);
    send st ~dst:(Tid.origin fam.f_root)
      (Protocol.Outcome_ack { m_tid = fam.f_root; m_from = me st })
  end
  else ignore (log_append st (Record.Abort { a_tid = fam.f_root }) : int);
  abort_local st fam

let apply_outcome st fam outcome ~ack_to =
  match outcome with
  | Protocol.Committed -> apply_commit st fam ~ack_to
  | Protocol.Aborted -> apply_abort st fam

(* --------------------------------------------------------------- *)
(* Waiting for the coordinator *)

(* 2PC window of vulnerability: a prepared subordinate that stops
   hearing from its coordinator stays blocked, periodically asking what
   happened. Presumed abort resolves an "unknown" answer to abort. *)
let start_inquiry_watchdog st fam =
  if not fam.f_watchdog then begin
    fam.f_watchdog <- true;
    let tid = fam.f_root in
    Site.spawn st.site ~name:"2pc-inquiry" (fun () ->
        let rec loop () =
          Fiber.sleep st.config.subordinate_timeout_ms;
          if fam.f_outcome = None then begin
            st.stats.n_inquiries <- st.stats.n_inquiries + 1;
            if tracing st then
              tracef st "2pc" "%a blocked; inquiring coordinator %d" Tid.pp tid
                (Tid.origin tid);
            send st ~dst:(Tid.origin tid)
              (Protocol.Inquiry { m_tid = tid; m_from = me st });
            loop ()
          end
        in
        loop ())
  end

(* A subordinate family that was joined by a server but never reached
   the prepare phase may be an orphan: its client or coordinator died
   before commitment started, and its locks would be held forever. The
   abort-protocol rule of §2 applies: inquire, and let presumed abort
   free the site. *)
let start_orphan_watchdog st fam =
  if not fam.f_orphan_watch then begin
    fam.f_orphan_watch <- true;
    let tid = fam.f_root in
    Site.spawn st.site ~name:"orphan-watch" (fun () ->
        let rec loop () =
          Fiber.sleep st.config.orphan_timeout_ms;
          if fam.f_outcome = None && (not fam.f_prepared) && not fam.f_read_only_done
          then begin
            st.stats.n_inquiries <- st.stats.n_inquiries + 1;
            if tracing st then
              tracef st "orphan" "%a: inactive; inquiring coordinator %d" Tid.pp
                tid (Tid.origin tid);
            send st ~dst:(Tid.origin tid)
              (Protocol.Inquiry { m_tid = tid; m_from = me st });
            loop ()
          end
        in
        loop ())
  end

(* Non-blocking: silence makes the subordinate a coordinator (change 2
   of §3.3). The takeover itself lives in [Nonblocking]; the dispatcher
   passes it in to avoid a module cycle. *)
let start_takeover_watchdog st fam ~takeover =
  if not fam.f_watchdog then begin
    fam.f_watchdog <- true;
    Site.spawn st.site ~name:"nb-takeover" (fun () ->
        Fiber.sleep st.config.subordinate_timeout_ms;
        if fam.f_outcome = None then begin
          st.stats.n_takeovers <- st.stats.n_takeovers + 1;
          if tracing st then
            tracef st "nb" "%a timed out; becoming coordinator" Tid.pp fam.f_root;
          takeover st fam
        end)
  end

(* --------------------------------------------------------------- *)
(* Paxos Commit acceptor (Gray & Lamport): one consensus instance per
   participant, 2F+1 acceptors drawn from coordinator :: participants.
   Participants cast their vote as a ballot-0 phase-2a; a recovery
   coordinator runs phase 1 at a higher ballot and re-proposes every
   instance. The acceptor state (highest ballot, accepted triples)
   lives in the family descriptor under f_mutex. *)

(* Deliver an acceptor's reply to the instance leader. When the leader
   is this very site (the F = 0 degenerate case, or a local takeover),
   the reply goes straight into the coordinator's waiter mailbox — a
   local hand-off, not a datagram, which is what keeps the F = 0
   message count identical to 2PC's. *)
let reply_to_leader st ~leader ~tid msg =
  if leader = me st then begin
    match waiter st tid with
    | Some mb -> Mailbox.send mb msg
    | None -> ()
  end
  else send st ~dst:leader msg

(* Phase 2a: accept (instance, ballot, vote) unless a higher ballot was
   promised. The acceptance is forced when it carries real durability —
   any ballot above 0, or any acceptor set beyond the coordinator
   itself — and spooled only in the provably-degenerate F = 0 case
   (sole self-acceptor), where the coordinator's own records already
   cover it; that spool is what collapses Paxos Commit to 2PC's force
   count. *)
let paxos_do_accept st fam ~instance ~ballot ~vote ~leader =
  let tid = fam.f_root in
  let accepted =
    Sync.Mutex.with_lock fam.f_mutex (fun () ->
        if ballot < fam.f_pax_ballot then false
        else begin
          fam.f_pax_ballot <- ballot;
          let same =
            List.exists
              (fun (i, b, v) -> i = instance && b = ballot && v = vote)
              fam.f_pax_accepted
          in
          if not same then begin
            fam.f_pax_accepted <-
              (instance, ballot, vote)
              :: List.filter (fun (i, _, _) -> i <> instance) fam.f_pax_accepted;
            let record =
              Record.Paxos_accepted
                {
                  pa_tid = tid;
                  pa_instance = instance;
                  pa_ballot = ballot;
                  pa_vote = vote;
                }
            in
            if ballot > 0 || fam.f_acceptors <> [ me st ] then begin
              ignore (log_append_force st record : int);
              Camelot_chaos.point ~site:(me st) p_accept_forced
            end
            else ignore (log_append st record : int)
          end;
          true
        end)
  in
  if accepted then
    reply_to_leader st ~leader ~tid
      (Protocol.Paxos_accepted
         { m_tid = tid; m_from = me st; m_instance = instance; m_ballot = ballot; m_vote = vote })
  else Camelot_chaos.point ~site:(me st) p_ballot_conflict

(* Phase 1a: promise [ballot] (forced — the promise must survive a
   crash) and report every acceptance, unless a higher ballot already
   owns this acceptor. Ballots encode their proposer, so an equal
   ballot is the same proposer retrying: re-answer without re-forcing. *)
let paxos_do_promise st fam ~ballot ~from =
  let tid = fam.f_root in
  let promised =
    Sync.Mutex.with_lock fam.f_mutex (fun () ->
        if ballot < fam.f_pax_ballot then None
        else begin
          if ballot > fam.f_pax_ballot then begin
            fam.f_pax_ballot <- ballot;
            ignore
              (log_append_force st
                 (Record.Paxos_promised { pp_tid = tid; pp_ballot = ballot })
                : int)
          end;
          Some fam.f_pax_accepted
        end)
  in
  match promised with
  | Some accepted ->
      reply_to_leader st ~leader:from ~tid
        (Protocol.Paxos_promise
           { m_tid = tid; m_from = me st; m_ballot = ballot; m_accepted = accepted })
  | None -> Camelot_chaos.point ~site:(me st) p_ballot_conflict

(* A participant casts its vote: one ballot-0 phase-2a per acceptor.
   The self-acceptance (when this site is in the acceptor set) is a
   direct local call, never a datagram. *)
let paxos_cast_vote st fam ~vote =
  let tid = fam.f_root in
  let leader = Tid.origin tid in
  List.iter
    (fun a ->
      if a = me st then
        paxos_do_accept st fam ~instance:(me st) ~ballot:0 ~vote ~leader
      else
        send st ~dst:a
          (Protocol.Paxos_accept
             {
               m_tid = tid;
               m_from = me st;
               m_instance = me st;
               m_ballot = 0;
               m_vote = vote;
               m_leader = leader;
             }))
    fam.f_acceptors

let handle_paxos_accept st msg =
  match msg with
  | Protocol.Paxos_accept { m_tid; m_instance; m_ballot; m_vote; m_leader; _ } ->
      let fam = find_or_join_family st m_tid in
      if fam.f_protocol <> Protocol.Paxos_commit then
        fam.f_protocol <- Protocol.Paxos_commit;
      paxos_do_accept st fam ~instance:m_instance ~ballot:m_ballot ~vote:m_vote
        ~leader:m_leader
  | _ -> invalid_arg "Subordinate.handle_paxos_accept"

let handle_paxos_prepare st msg =
  match msg with
  | Protocol.Paxos_prepare { m_tid; m_from; m_ballot } ->
      let fam = find_or_join_family st m_tid in
      if fam.f_protocol <> Protocol.Paxos_commit then
        fam.f_protocol <- Protocol.Paxos_commit;
      paxos_do_promise st fam ~ballot:m_ballot ~from:m_from
  | _ -> invalid_arg "Subordinate.handle_paxos_prepare"

(* --------------------------------------------------------------- *)
(* Message handlers (run on TranMan pool threads) *)

(* Prepare: ask the local servers to vote; on yes, force a prepare
   record and answer — unless everything here was read-only, in which
   case the site votes yes-read-only, drops its locks and forgets
   (§4.2's read-only optimization). *)
let handle_prepare st msg ~takeover ~paxos_takeover =
  match msg with
  | Protocol.Prepare
      { m_tid; m_coordinator; m_protocol; m_sites; m_commit_quorum; m_acceptors }
    -> (
      let fam = find_or_join_family st m_tid in
      fam.f_protocol <- m_protocol;
      fam.f_sites <- m_sites;
      fam.f_commit_quorum <- m_commit_quorum;
      if m_acceptors <> [] then fam.f_acceptors <- m_acceptors;
      (* a paxos revote travels as a fresh ballot-0 phase-2a to every
         acceptor; other protocols revote with a plain Vote datagram *)
      let revote vote =
        match m_protocol with
        | Protocol.Paxos_commit -> paxos_cast_vote st fam ~vote
        | _ ->
            send st ~dst:m_coordinator
              (Protocol.Vote { m_tid; m_from = me st; m_vote = vote })
      in
      match fam.f_outcome with
      | Some Protocol.Committed ->
          (* duplicate prepare after commit: coordinator must have our
             vote already; resend harmless status *)
          send st ~dst:m_coordinator
            (Protocol.Status
               { m_tid; m_from = me st; m_status = Protocol.St_committed })
      | Some Protocol.Aborted ->
          send st ~dst:m_coordinator
            (Protocol.Vote { m_tid; m_from = me st; m_vote = Protocol.Vote_no })
      | None ->
          if fam.f_read_only_done then
            (* duplicate prepare after a read-only vote: revote *)
            revote (Protocol.Vote_yes { read_only = true })
          else if fam.f_prepared then
            (* duplicate prepare while prepared: just revote yes *)
            revote (Protocol.Vote_yes { read_only = false })
          else if unresolved_children fam <> [] then begin
            apply_abort st fam;
            send st ~dst:m_coordinator
              (Protocol.Vote { m_tid; m_from = me st; m_vote = Protocol.Vote_no })
          end
          else if fam.f_servers = [] then begin
            (* amnesia: the coordinator names us a participant, yet no
               local server knows the transaction — a crash wiped the
               join (and with it any spooled updates) between the
               operation and this retried prepare. The empty fold in
               [vote_local_servers] would answer yes-read-only and let
               the coordinator commit updates that are durable nowhere;
               presumed abort makes no the only safe vote. *)
            apply_abort st fam;
            send st ~dst:m_coordinator
              (Protocol.Vote { m_tid; m_from = me st; m_vote = Protocol.Vote_no })
          end
          else begin
            match vote_local_servers st fam with
            | Protocol.Vote_no ->
                apply_abort st fam;
                send st ~dst:m_coordinator
                  (Protocol.Vote
                     { m_tid; m_from = me st; m_vote = Protocol.Vote_no })
            | Protocol.Vote_yes { read_only = true }
              when st.config.read_only_optimization ->
                (* nothing at stake: answer, drop locks, forget. No
                   outcome is claimed — a later inquiry gets
                   "unknown" — but the site can still be drafted into
                   a non-blocking quorum. *)
                fam.f_read_only_done <- true;
                drop_local_locks st fam;
                revote (Protocol.Vote_yes { read_only = true })
            | Protocol.Vote_yes { read_only = _ } ->
                let prepare_rec =
                  Record.Prepare
                    {
                      p_tid = m_tid;
                      p_coordinator = m_coordinator;
                      p_protocol = m_protocol;
                      p_sites = m_sites;
                      p_acceptors = m_acceptors;
                    }
                in
                (* the bug knob spools where correctness demands a
                   force; the chaos explorer exists to catch this *)
                if st.config.unsafe_skip_prepare_force then
                  ignore (log_append st prepare_rec : int)
                else ignore (log_append_force st prepare_rec : int);
                Camelot_chaos.point ~site:(me st) p_prepare_forced;
                fam.f_prepared <- true;
                (* short-commit's defining move: the locks drop here,
                   at prepare time, before the outcome is known — the
                   undo stack stays, because an abort must still be
                   possible *)
                if m_protocol = Protocol.Short_commit then begin
                  release_local_locks st fam;
                  Camelot_chaos.point ~site:(me st) p_release_early
                end;
                revote (Protocol.Vote_yes { read_only = false });
                Camelot_chaos.point ~site:(me st) p_vote_sent;
                (match m_protocol with
                | Protocol.Two_phase | Protocol.Short_commit ->
                    start_inquiry_watchdog st fam
                | Protocol.Nonblocking -> start_takeover_watchdog st fam ~takeover
                | Protocol.Paxos_commit ->
                    start_takeover_watchdog st fam ~takeover:paxos_takeover)
          end)
  | _ -> invalid_arg "Subordinate.handle_prepare"

(* Replication phase (non-blocking only): persist the coordinator's
   decision data, thereby joining the commit quorum — unless this site
   already joined an abort quorum (change 4: never both). *)
let handle_replicate st msg =
  match msg with
  | Protocol.Replicate { m_tid; m_coordinator; m_sites; m_update_sites } -> (
      match find_family st m_tid with
      | None ->
          (* never prepared here (or long forgotten): presumed abort *)
          ()
      | Some fam ->
          (* f_mutex serializes quorum-side decisions (§3.4 per-family
             lock): the side check and the force that backs it must be
             atomic against a concurrent takeover refusal, or one site
             could join both quorums (change 4 forbids exactly that). *)
          Sync.Mutex.with_lock fam.f_mutex (fun () ->
              match (fam.f_outcome, fam.f_quorum_side) with
              | Some Protocol.Committed, _ | None, Q_commit ->
                  (* duplicate: re-ack *)
                  send st ~dst:m_coordinator
                    (Protocol.Replicate_ack { m_tid; m_from = me st })
              | Some Protocol.Aborted, _ ->
                  (* a takeover aborted this transaction while the
                     replicating coordinator was unreachable: tell it, so
                     its replication loop adopts the outcome instead of
                     retrying forever *)
                  send st ~dst:m_coordinator
                    (Protocol.Outcome
                       {
                         m_tid;
                         m_from = me st;
                         m_outcome = Protocol.Aborted;
                         m_protocol = fam.f_protocol;
                       })
              | None, Q_abort -> ()
              | None, Q_none ->
                  (* prepared update subordinates join the commit quorum;
                     so do read-only ones the coordinator drafted to reach
                     quorum size ("often need not participate" — but may) *)
                  if fam.f_prepared || fam.f_read_only_done then begin
                    ignore
                      (log_append_force st
                         (Record.Replication
                            {
                              r_tid = m_tid;
                              r_coordinator = m_coordinator;
                              r_sites = m_sites;
                              r_update_sites = m_update_sites;
                            })
                        : int);
                    Camelot_chaos.point ~site:(me st) p_replication_forced;
                    fam.f_quorum_side <- Q_commit;
                    fam.f_update_sites <- m_update_sites;
                    send st ~dst:m_coordinator
                      (Protocol.Replicate_ack { m_tid; m_from = me st })
                  end))
  | _ -> invalid_arg "Subordinate.handle_replicate"

(* Outcome notice. Idempotent: duplicates re-ack commits (the
   coordinator keeps retransmitting until acked) and ignore aborts. *)
let handle_outcome st msg =
  match msg with
  | Protocol.Outcome { m_tid; m_from; m_outcome; m_protocol } -> (
      match find_family st m_tid with
      | None ->
          (* forgotten or never seen; ack whichever outcome carries the
             acknowledgement duty under the deciding protocol — the
             message says which, since no descriptor survives here —
             so the coordinator can forget too *)
          let needs_ack =
            match m_protocol with
            | Protocol.Short_commit ->
                (* commits travel unacknowledged; aborts are acked *)
                m_outcome = Protocol.Aborted
            | _ -> (
                match (st.config.presumption, m_outcome) with
                | Presume_abort, Protocol.Committed
                | Presume_commit, Protocol.Aborted ->
                    true
                | Presume_abort, Protocol.Aborted
                | Presume_commit, Protocol.Committed ->
                    false)
          in
          if needs_ack then
            send_piggybacked st ~dst:m_from
              (Protocol.Outcome_ack { m_tid; m_from = me st })
      | Some fam -> (
          match fam.f_outcome with
          | None -> apply_outcome st fam m_outcome ~ack_to:m_from
          | Some Protocol.Committed when m_outcome = Protocol.Committed ->
              if
                st.config.presumption = Presume_abort
                && fam.f_protocol <> Protocol.Short_commit
              then
                send_piggybacked st ~dst:m_from
                  (Protocol.Outcome_ack { m_tid; m_from = me st })
          | Some Protocol.Aborted when m_outcome = Protocol.Aborted ->
              if
                st.config.presumption = Presume_commit
                || fam.f_protocol = Protocol.Short_commit
              then
                send_piggybacked st ~dst:m_from
                  (Protocol.Outcome_ack { m_tid; m_from = me st })
          | Some prior ->
              if prior <> m_outcome then begin
                (* a heuristic decision went the wrong way: record the
                   damage for the operator (LU 6.2 semantics: heuristic
                   resolution "does not guarantee correctness") *)
                st.stats.n_heuristic_damage <- st.stats.n_heuristic_damage + 1;
                if tracing st then
                  tracef st "ERROR" "%a: conflicting outcomes %a vs %a" Tid.pp
                    m_tid Protocol.pp_outcome prior Protocol.pp_outcome m_outcome
              end))
  | _ -> invalid_arg "Subordinate.handle_outcome"

(* Status inquiry: answer from the descriptor (or its absence —
   presumed abort makes [St_unknown] decisive for 2PC). *)
let handle_inquiry st msg =
  match msg with
  | Protocol.Inquiry { m_tid; m_from } ->
      let status = status_of_family st m_tid in
      send st ~dst:m_from (Protocol.Status { m_tid; m_from = me st; m_status = status })
  | _ -> invalid_arg "Subordinate.handle_inquiry"

(* A takeover coordinator asks this site to join the abort quorum: the
   site must refuse commitment forever — unless it is already on the
   commit side. Force a refusal record before promising (it must
   survive a crash). *)
let handle_join_abort_quorum st msg =
  match msg with
  | Protocol.Join_abort_quorum { m_tid; m_from } -> (
      let reply ok =
        send st ~dst:m_from (Protocol.Refused { m_tid; m_from = me st; m_ok = ok })
      in
      let fam =
        match find_family st m_tid with
        | Some fam -> fam
        | None ->
            (* never heard of it: safe to promise never to commit it *)
            find_or_join_family st m_tid
      in
      (* under f_mutex, against a concurrent handle_replicate — a site
         must never end up on both quorum sides *)
      Sync.Mutex.with_lock fam.f_mutex (fun () ->
          match (fam.f_outcome, fam.f_quorum_side) with
          | Some Protocol.Committed, _ | None, Q_commit -> reply false
          | Some Protocol.Aborted, _ | None, Q_abort -> reply true
          | None, Q_none ->
              ignore (log_append_force st (Record.Refusal { f_tid = m_tid }) : int);
              fam.f_quorum_side <- Q_abort;
              reply true))
  | _ -> invalid_arg "Subordinate.handle_join_abort_quorum"

(* Nested subtransaction resolution pushed from the site where the
   child ran: transfer or undo its effects at every local server. *)
let handle_child_finish st msg =
  match msg with
  | Protocol.Child_finish { m_tid; m_outcome } -> (
      match find_family st m_tid with
      | None -> ()
      | Some fam -> (
          let m = member st fam m_tid in
          match m.mem_resolved with
          | Some _ -> ()
          | None ->
              m.mem_resolved <- Some m_outcome;
              List.iter
                (fun name ->
                  match server_callbacks st name with
                  | None -> ()
                  | Some cb -> (
                      match m_outcome with
                      | Protocol.Committed -> cb.sv_subcommit m_tid
                      | Protocol.Aborted -> cb.sv_abort m_tid))
                fam.f_servers))
  | _ -> invalid_arg "Subordinate.handle_child_finish"

(* A status reply arriving outside any takeover collection: a blocked
   subordinate learns its fate. A committed/aborted answer is decisive
   from anyone; [St_unknown] is decisive only under two-phase commit's
   presumed abort, and only from the coordinator itself (a non-blocking
   peer that never prepared knows nothing). *)
let handle_status st msg =
  match msg with
  | Protocol.Status { m_tid; m_from; m_status } -> (
      match find_family st m_tid with
      | None -> ()
      | Some fam ->
          if fam.f_outcome = None && fam.f_prepared then begin
            match m_status with
            | Protocol.St_committed ->
                apply_outcome st fam Protocol.Committed ~ack_to:m_from
            | Protocol.St_aborted ->
                apply_outcome st fam Protocol.Aborted ~ack_to:m_from
            | Protocol.St_unknown -> (
                (* decisive only from the coordinator itself, and only
                   under protocols where a forgotten coordinator
                   implies an outcome: 2PC by its presumption,
                   short-commit always by commit (its aborts are
                   remembered until acknowledged). A non-blocking or
                   paxos peer that knows nothing proves nothing — the
                   takeover machinery resolves those. *)
                match fam.f_protocol with
                | Protocol.Two_phase when m_from = Tid.origin m_tid ->
                    apply_outcome st fam
                      (match st.config.presumption with
                      | Presume_abort -> Protocol.Aborted
                      | Presume_commit -> Protocol.Committed)
                      ~ack_to:m_from
                | Protocol.Short_commit when m_from = Tid.origin m_tid ->
                    apply_outcome st fam Protocol.Committed ~ack_to:m_from
                | _ -> ())
            | Protocol.St_active | Protocol.St_prepared | Protocol.St_replicated
            | Protocol.St_refused ->
                ()
          end
          else if fam.f_outcome = None && not fam.f_prepared then begin
            (* an orphan inquiry came back: abort is safe while
               unprepared (we never voted), and an unknowing or aborted
               coordinator means the transaction is dead *)
            match m_status with
            | Protocol.St_aborted -> apply_abort st fam
            | Protocol.St_unknown when m_from = Tid.origin m_tid ->
                apply_abort st fam
            | Protocol.St_unknown | Protocol.St_committed | Protocol.St_active
            | Protocol.St_prepared | Protocol.St_replicated | Protocol.St_refused ->
                ()
          end)
  | _ -> invalid_arg "Subordinate.handle_status"
