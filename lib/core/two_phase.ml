(* Coordinator side of two-phase commitment, Camelot style (§3.2):
   presumed abort [Mohan & Lindsay] plus the delayed-commit-ack
   optimization — a subordinate drops its locks before writing its
   commit record, the record is not forced, and the coordinator must
   not forget the transaction until every subordinate's commit record
   is durable (signalled by the piggybacked commit-ack).

   The write variant actually used by subordinates is configured in
   [State.config]; this coordinator is identical for all three. *)

open Camelot_sim
open Camelot_mach
open State

(* Chaos fault points (no-ops unless an explorer is attached). *)
let p_prepare_sent = Camelot_chaos.register "coord.prepare.sent"
let p_commit_forced = Camelot_chaos.register "coord.commit.forced"
let p_abort_logged = Camelot_chaos.register "coord.abort.logged"
let p_acks_in = Camelot_chaos.register "coord.acks.in"

(* The window satellite schedules care about most: every vote is in but
   the outcome is not yet durable. Shared by all four protocols. *)
let p_votes_collected = Camelot_chaos.register "coord.votes.collected"

(* Local commitment: no subordinates. One forced log write commits the
   transaction (Figure 1 step 9); a fully read-only transaction writes
   nothing at all. *)
let commit_local st fam ~read_only =
  let tid = fam.f_root in
  if read_only && st.config.read_only_optimization then begin
    resolve_family st fam Protocol.Committed;
    drop_local_locks st fam;
    Protocol.Committed
  end
  else begin
    ignore (log_append_force st (Record.Commit { c_tid = tid; c_sites = [] }) : int);
    Camelot_chaos.point ~site:(me st) p_commit_forced;
    resolve_family st fam Protocol.Committed;
    (* Figure 1 step 11: drop-locks messages follow the reply *)
    Site.spawn st.site ~name:"drop-locks" (fun () -> drop_local_locks st fam);
    Protocol.Committed
  end

(* Retransmit an outcome notice until every listed subordinate has
   acknowledged; then write the End record and forget. Under presumed
   abort this runs for commits (the §3.2 rule: "the coordinator must
   not forget about the transaction before the subordinate writes its
   own commit record"); under presumed commit it runs for aborts
   instead. Runs off the completion path. *)
let start_notify ?(outcome = Protocol.Committed) st fam ~update_subs =
  let tid = fam.f_root in
  fam.f_acks_pending <- update_subs;
  let outcome_msg =
    Protocol.Outcome
      {
        m_tid = tid;
        m_from = me st;
        m_outcome = outcome;
        m_protocol = fam.f_protocol;
      }
  in
  fan_out st ~dsts:update_subs outcome_msg;
  Site.spawn st.site ~name:"2pc-notify" (fun () ->
      let rec loop () =
        if fam.f_acks_pending <> [] then begin
          Fiber.sleep st.config.outcome_retry_ms;
          if fam.f_acks_pending <> [] then begin
            fan_out st ~dsts:fam.f_acks_pending outcome_msg;
            loop ()
          end
        end
      in
      loop ();
      Camelot_chaos.point ~site:(me st) p_acks_in;
      ignore (log_append st (Record.End { e_tid = tid }) : int);
      fam.f_ended <- true;
      unregister_waiter st tid;
      if tracing st then
        tracef st "2pc" "%a: all %a-acks in; forgotten" Tid.pp tid
          Protocol.pp_outcome outcome)

(* Abort everywhere we know about. Presumed abort: the abort record is
   not forced, no acknowledgements are collected, and the descriptor
   can be forgotten at once — an inquiry hitting a forgotten
   transaction is answered "unknown", which means abort. Presumed
   commit inverts the costs: the abort record must be forced, and the
   coordinator must collect abort acknowledgements before forgetting
   (otherwise a later inquiry would presume commit). *)
let abort_distributed st fam ~subs =
  let tid = fam.f_root in
  (* short-commit always follows the presumed-commit abort discipline:
     its coordinator forced a collecting record, and a forgotten
     coordinator implies commit *)
  let discipline =
    if fam.f_protocol = Protocol.Short_commit then Presume_commit
    else st.config.presumption
  in
  (match discipline with
  | Presume_abort ->
      ignore (log_append st (Record.Abort { a_tid = tid }) : int);
      resolve_family st fam Protocol.Aborted;
      fan_out st ~dsts:subs
        (Protocol.Outcome
           {
             m_tid = tid;
             m_from = me st;
             m_outcome = Protocol.Aborted;
             m_protocol = fam.f_protocol;
           })
  | Presume_commit ->
      ignore (log_append_force st (Record.Abort { a_tid = tid }) : int);
      resolve_family st fam Protocol.Aborted;
      if subs = [] then begin
        ignore (log_append st (Record.End { e_tid = tid }) : int);
        fam.f_ended <- true
      end
      else start_notify ~outcome:Protocol.Aborted st fam ~update_subs:subs);
  Camelot_chaos.point ~site:(me st) p_abort_logged;
  abort_local st fam;
  Protocol.Aborted

(* Acknowledgement bookkeeping, called from the dispatcher. *)
let note_outcome_ack (_ : State.t) fam ~from =
  fam.f_acks_pending <- List.filter (fun s -> s <> from) fam.f_acks_pending

(* The vote-collection loop. Prepares are retried for unresponsive
   subordinates a bounded number of times; then the transaction aborts
   (the §2 rule: if some operation fails to respond, abort — here for
   the voting phase). *)
type votes = {
  pending : Camelot_mach.Site.id array;
  mutable n_pending : int;
  mutable read_only_subs : Camelot_mach.Site.id list;
  mutable refused : bool;
}

let votes_pending votes = Array.to_list (Array.sub votes.pending 0 votes.n_pending)

let collect_votes st fam mb ~subs ~prepare_msg =
  let tid = fam.f_root in
  let votes =
    {
      pending = Array.of_list subs;
      n_pending = List.length subs;
      read_only_subs = [];
      refused = false;
    }
  in
  (* shift-removal keeps the laggards in [subs] order, so a revote
     fans out prepares in the same site order as the first round *)
  let note_yes ~from ~read_only =
    let rec idx i =
      if i >= votes.n_pending then -1
      else if votes.pending.(i) = from then i
      else idx (i + 1)
    in
    let i = idx 0 in
    if i >= 0 then begin
      Array.blit votes.pending (i + 1) votes.pending i (votes.n_pending - i - 1);
      votes.n_pending <- votes.n_pending - 1;
      if read_only then votes.read_only_subs <- from :: votes.read_only_subs
    end
  in
  let rec wait_round retries =
    if votes.n_pending = 0 || votes.refused then ()
    else
      match Mailbox.recv_timeout mb st.config.vote_timeout_ms with
      | Some (Protocol.Vote { m_from; m_vote; _ }) -> (
          charge_cpu st;
          match m_vote with
          | Protocol.Vote_yes { read_only } ->
              note_yes ~from:m_from ~read_only;
              if Camelot_chaos.attached () then
                Camelot_chaos.note ~site:(me st)
                  (Printf.sprintf "v%d" votes.n_pending);
              wait_round retries
          | Protocol.Vote_no ->
              votes.refused <- true)
      | Some (Protocol.Status { m_from; m_status = Protocol.St_committed; _ }) ->
          (* a read-only subordinate that already resolved re-answers a
             duplicate prepare this way *)
          note_yes ~from:m_from ~read_only:true;
          wait_round retries
      | Some _ -> wait_round retries (* stale traffic *)
      | None ->
          if fam.f_outcome <> None || retries >= st.config.max_vote_retries then ()
          else begin
            if tracing st then
              tracef st "vote" "%a: revoting %d subordinate(s)" Tid.pp tid
                votes.n_pending;
            fan_out st ~dsts:(votes_pending votes) prepare_msg;
            wait_round (retries + 1)
          end
  in
  wait_round 0;
  votes

(* The decided-commit epilogue, shared with Paxos Commit (whose F = 0
   case must match it force-for-force and message-for-message): force
   the commit record — the commit point — then run the
   presumption-matched notification discipline and release local locks
   off the completion path. *)
let commit_decided st fam ~update_subs =
  let tid = fam.f_root in
  ignore
    (log_append_force st (Record.Commit { c_tid = tid; c_sites = update_subs })
      : int);
  Camelot_chaos.point ~site:(me st) p_commit_forced;
  resolve_family st fam Protocol.Committed;
  (* short-commit rides the presumed-commit branch whatever the
     configured presumption: its commit notices are unacknowledged by
     construction *)
  let discipline =
    if fam.f_protocol = Protocol.Short_commit then Presume_commit
    else st.config.presumption
  in
  (match discipline with
  | Presume_abort ->
      if update_subs = [] then begin
        unregister_waiter st tid;
        ignore (log_append st (Record.End { e_tid = tid }) : int);
        fam.f_ended <- true
      end
      else start_notify st fam ~update_subs
  | Presume_commit ->
      (* no commit-acks at all: a subordinate that misses the notice
         will inquire and presume commit from the forgotten
         coordinator *)
      unregister_waiter st tid;
      fan_out st ~dsts:update_subs
        (Protocol.Outcome
           {
             m_tid = tid;
             m_from = me st;
             m_outcome = Protocol.Committed;
             m_protocol = fam.f_protocol;
           });
      ignore (log_append st (Record.End { e_tid = tid }) : int);
      fam.f_ended <- true);
  Site.spawn st.site ~name:"drop-locks" (fun () -> drop_local_locks st fam);
  Protocol.Committed

(* Entry point: commit the family rooted at [tid]. Runs on a TranMan
   pool thread; blocks until the outcome is decided (the completion
   path), leaving notification and ack collection in the background
   (the rest of the critical path). *)
let coordinate st fam =
  let tid = fam.f_root in
  let local_vote = vote_local_servers st fam in
  let subs = fam.f_remote_sites in
  if subs <> [] then st.stats.n_distributed <- st.stats.n_distributed + 1;
  match local_vote with
  | Protocol.Vote_no -> abort_distributed st fam ~subs
  | Protocol.Vote_yes { read_only = local_ro } ->
      if subs = [] then commit_local st fam ~read_only:local_ro
      else begin
        let mb = register_waiter st tid in
        fam.f_prepared <- true;
        fam.f_sites <- me st :: subs;
        (* presumed commit: the collecting record is forced before any
           prepare message, so a recovering coordinator knows this
           transaction cannot be presumed committed *)
        if st.config.presumption = Presume_commit then
          ignore
            (log_append_force st
               (Record.Collecting
                  { g_tid = tid; g_sites = subs; g_protocol = Protocol.Two_phase })
              : int);
        let prepare_msg =
          Protocol.Prepare
            {
              m_tid = tid;
              m_coordinator = me st;
              m_protocol = Protocol.Two_phase;
              m_sites = subs;
              m_commit_quorum = 0;
              m_acceptors = [];
            }
        in
        fan_out st ~dsts:subs prepare_msg;
        Camelot_chaos.point ~site:(me st) p_prepare_sent;
        let votes = collect_votes st fam mb ~subs ~prepare_msg in
        if votes.refused || votes.n_pending > 0 then begin
          unregister_waiter st tid;
          abort_distributed st fam ~subs
        end
        else begin
          Camelot_chaos.point ~site:(me st) p_votes_collected;
          let update_subs =
            List.filter (fun s -> not (List.mem s votes.read_only_subs)) subs
          in
          if update_subs = [] && local_ro && st.config.read_only_optimization
          then begin
            (* wholly read-only: nothing logged, no second phase *)
            unregister_waiter st tid;
            resolve_family st fam Protocol.Committed;
            drop_local_locks st fam;
            Protocol.Committed
          end
          else commit_decided st fam ~update_subs
        end
      end
