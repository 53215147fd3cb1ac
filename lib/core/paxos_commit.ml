(* Gray & Lamport's Paxos Commit ("Consensus on Transaction Commit"),
   grafted onto the Camelot commit machinery as a first-class sibling
   of 2PC. Each participant's vote is one Paxos consensus instance
   decided by a fixed set of 2F+1 acceptors (the first 2F+1 of
   coordinator :: participants); the transaction commits iff every
   instance chooses a yes vote.

   On the fault-free path the original coordinator is the leader of
   every instance: participants cast their vote as ballot-0 phase-2a
   messages straight to the acceptors, and the coordinator counts F+1
   phase-2b acceptances per instance. With F = 0 the sole acceptor is
   the coordinator itself, every acceptor interaction degenerates to a
   local hand-off, and the protocol provably collapses to 2PC's
   message and force counts (the shared {!Two_phase.commit_decided}
   epilogue keeps the commit point itself identical).

   When the coordinator goes silent, any prepared participant becomes
   a recovery coordinator: it runs phase 1 at a higher ballot
   (ballots encode their proposer, so competing takeovers cannot
   collide), learns every acceptance a promise quorum has seen,
   re-proposes each instance — the highest-ballot acceptance if one
   exists, a no-vote otherwise — and decides once every instance has a
   phase-2b quorum. Unlike 2PC this never blocks on a single failure,
   and unlike the §3.3 non-blocking protocol the decision is reached
   in one round against any F simultaneous acceptor deaths. *)

open Camelot_sim
open Camelot_mach
open State

(* Same spelling as the other coordinators': registration is
   idempotent, and satellite schedules address the point by name. *)
let p_prepare_sent = Camelot_chaos.register "coord.prepare.sent"
let p_takeover_start = Camelot_chaos.register "paxos.takeover.start"

(* The acceptor set: the first 2F+1 of coordinator :: participants.
   With fewer than 2F+1 sites every site is an acceptor (quorums are
   majorities of the actual set). *)
let acceptor_set st ~subs =
  let rec take k l =
    if k = 0 then []
    else match l with [] -> [] | x :: tl -> x :: take (k - 1) tl
  in
  take ((2 * st.config.paxos_f) + 1) (me st :: subs)

let quorum_of acceptors = (List.length acceptors / 2) + 1

(* A recovery ballot: attempt-numbered, proposer-tagged so two
   competing takeover coordinators can never issue the same ballot. *)
let ballot_of st ~attempt = (attempt * 1024) + me st + 1

(* ---------------------------------------------------------------- *)
(* Ballot > 0 resolution, shared by coordinator escalation (a vote
   round timed out: somebody may already hold durable acceptances, so
   aborting unilaterally is unsafe) and subordinate takeover. Runs the
   full two-phase Paxos round over every instance and returns the
   decided outcome, leaving application to the caller. *)

let rec resolve st fam mb ~attempt =
  let tid = fam.f_root in
  match fam.f_outcome with
  | Some o -> o
  | None ->
      let ballot = ballot_of st ~attempt in
      if Camelot_chaos.attached () then
        Camelot_chaos.note ~site:(me st) (Printf.sprintf "b%d" ballot);
      if tracing st then
        tracef st "paxos" "%a: resolving at ballot %d" Tid.pp tid ballot;
      let acceptors = fam.f_acceptors in
      let needed = quorum_of acceptors in
      let retry () =
        Fiber.sleep st.config.takeover_retry_ms;
        resolve st fam mb ~attempt:(attempt + 1)
      in
      (* phase 1: a promise quorum, self-acceptance by local call *)
      List.iter
        (fun a ->
          if a = me st then Subordinate.paxos_do_promise st fam ~ballot ~from:(me st)
          else
            send st ~dst:a
              (Protocol.Paxos_prepare { m_tid = tid; m_from = me st; m_ballot = ballot }))
        acceptors;
      let promises = ref [] in
      let deadline = Engine.now (engine st) +. st.config.vote_timeout_ms in
      let rec drain1 () =
        if List.length !promises < needed && fam.f_outcome = None then begin
          let remaining = deadline -. Engine.now (engine st) in
          if remaining > 0.0 then
            match Mailbox.recv_timeout mb remaining with
            | Some (Protocol.Paxos_promise { m_from; m_ballot = b; m_accepted; _ })
              when b = ballot ->
                charge_cpu st;
                if not (List.mem_assoc m_from !promises) then
                  promises := (m_from, m_accepted) :: !promises;
                drain1 ()
            | Some _ -> drain1 ()
            | None -> ()
        end
      in
      drain1 ();
      if fam.f_outcome <> None then Option.get fam.f_outcome
      else if List.length !promises < needed then retry ()
      else begin
        (* per instance: the highest-ballot acceptance any promiser has
           seen; a wholly unseen instance is completed with a no-vote
           (its participant may never have voted, and no acceptance can
           exist outside a promise quorum's view) *)
        let chosen i =
          List.fold_left
            (fun best (_, accepted) ->
              List.fold_left
                (fun best (inst, b, v) ->
                  if inst <> i then best
                  else
                    match best with
                    | Some (bb, _) when bb >= b -> best
                    | _ -> Some (b, v))
                best accepted)
            None !promises
        in
        let proposals =
          List.map
            (fun i ->
              match chosen i with
              | Some (_, v) -> (i, v)
              | None -> (i, Protocol.Vote_no))
            fam.f_sites
        in
        (* phase 2: re-propose every instance at this ballot *)
        List.iter
          (fun (i, v) ->
            List.iter
              (fun a ->
                if a = me st then
                  Subordinate.paxos_do_accept st fam ~instance:i ~ballot ~vote:v
                    ~leader:(me st)
                else
                  send st ~dst:a
                    (Protocol.Paxos_accept
                       {
                         m_tid = tid;
                         m_from = me st;
                         m_instance = i;
                         m_ballot = ballot;
                         m_vote = v;
                         m_leader = me st;
                       }))
              acceptors)
          proposals;
        let acks : (Site.id, Site.id list) Hashtbl.t = Hashtbl.create 8 in
        let decided i =
          match Hashtbl.find_opt acks i with
          | Some l -> List.length l >= needed
          | None -> false
        in
        let all_decided () = List.for_all (fun (i, _) -> decided i) proposals in
        let deadline = Engine.now (engine st) +. st.config.vote_timeout_ms in
        let rec drain2 () =
          if (not (all_decided ())) && fam.f_outcome = None then begin
            let remaining = deadline -. Engine.now (engine st) in
            if remaining > 0.0 then
              match Mailbox.recv_timeout mb remaining with
              | Some (Protocol.Paxos_accepted { m_from; m_instance; m_ballot = b; _ })
                when b = ballot ->
                  charge_cpu st;
                  let l =
                    Option.value ~default:[] (Hashtbl.find_opt acks m_instance)
                  in
                  if not (List.mem m_from l) then
                    Hashtbl.replace acks m_instance (m_from :: l);
                  drain2 ()
              | Some _ -> drain2 ()
              | None -> ()
          end
        in
        drain2 ();
        if fam.f_outcome <> None then Option.get fam.f_outcome
        else if not (all_decided ()) then retry ()
        else begin
          fam.f_update_sites <-
            List.filter_map
              (fun (i, v) ->
                match v with
                | Protocol.Vote_yes { read_only = false } -> Some i
                | _ -> None)
              proposals;
          if
            List.for_all
              (fun (_, v) ->
                match v with Protocol.Vote_yes _ -> true | Protocol.Vote_no -> false)
              proposals
          then Protocol.Committed
          else Protocol.Aborted
        end
      end

(* Apply and propagate an outcome decided at ballot > 0, exactly like
   a non-blocking takeover coordinator: the decision is already chosen
   by the acceptor quorum, so the local commit record is merely this
   site's own durability. Peers that miss the notice inquire. *)
let adopt st fam outcome =
  let tid = fam.f_root in
  let peers = List.filter (fun s -> s <> me st) fam.f_sites in
  if tracing st then
    tracef st "paxos" "%a: ballot > 0 decided %a" Tid.pp tid Protocol.pp_outcome
      outcome;
  (match outcome with
  | Protocol.Committed ->
      if fam.f_outcome = None then begin
        ignore
          (log_append_force st
             (Record.Commit { c_tid = tid; c_sites = fam.f_update_sites })
            : int);
        Subordinate.apply_commit st fam ~ack_to:(me st)
      end
  | Protocol.Aborted -> if fam.f_outcome = None then Subordinate.apply_abort st fam);
  let outcome_msg =
    Protocol.Outcome
      { m_tid = tid; m_from = me st; m_outcome = outcome; m_protocol = fam.f_protocol }
  in
  fan_out st ~dsts:peers outcome_msg;
  Site.spawn st.site ~name:"paxos-renotify" (fun () ->
      Fiber.sleep st.config.outcome_retry_ms;
      fan_out st ~dsts:peers outcome_msg)

(* A prepared participant's takeover (runs in the watchdog fiber, and
   re-entered from recovery): become the leader at a higher ballot and
   finish every instance. *)
let takeover st fam =
  Camelot_chaos.point ~site:(me st) p_takeover_start;
  let tid = fam.f_root in
  let mb = register_waiter st tid in
  let outcome = resolve st fam mb ~attempt:1 in
  adopt st fam outcome;
  unregister_waiter st tid

(* ---------------------------------------------------------------- *)
(* The original coordinator: leader of every instance at ballot 0. *)

(* Ballot-0 collection: per instance, F+1 phase-2b acceptances. An
   explicit no travels as a plain vote message (never through the
   acceptors), and aborts the transaction directly — only *silence*
   must escalate through the acceptors, because a silent participant
   may have durable yes-acceptances a concurrent takeover could commit
   on. *)
let collect_ballot0 st fam mb ~prepare_msg =
  let instances = fam.f_sites in
  let needed = quorum_of fam.f_acceptors in
  (* instance -> (acceptors heard from, instance voted read-only) *)
  let tally : (Site.id, Site.id list * bool) Hashtbl.t = Hashtbl.create 8 in
  let refused = ref false in
  let satisfied i =
    match Hashtbl.find_opt tally i with
    | Some (acks, _) -> List.length acks >= needed
    | None -> false
  in
  let missing () = List.filter (fun i -> not (satisfied i)) instances in
  let rec wait_round retries =
    if !refused || missing () = [] then ()
    else
      match Mailbox.recv_timeout mb st.config.vote_timeout_ms with
      | Some (Protocol.Paxos_accepted { m_from; m_instance; m_ballot = 0; m_vote; _ })
        -> (
          charge_cpu st;
          match m_vote with
          | Protocol.Vote_no -> refused := true
          | Protocol.Vote_yes { read_only } ->
              let acks, ro =
                Option.value ~default:([], read_only)
                  (Hashtbl.find_opt tally m_instance)
              in
              if not (List.mem m_from acks) then
                Hashtbl.replace tally m_instance (m_from :: acks, ro || read_only);
              if Camelot_chaos.attached () then
                Camelot_chaos.note ~site:(me st)
                  (Printf.sprintf "v%d" (List.length (missing ())));
              wait_round retries)
      | Some (Protocol.Vote { m_vote = Protocol.Vote_no; _ }) -> refused := true
      | Some (Protocol.Status { m_from; m_status = Protocol.St_committed; _ }) ->
          (* a read-only participant that already resolved re-answers a
             duplicate prepare this way: its instance needs no quorum *)
          Hashtbl.replace tally m_from (fam.f_acceptors, true);
          wait_round retries
      | Some _ -> wait_round retries
      | None ->
          if fam.f_outcome <> None || retries >= st.config.max_vote_retries then ()
          else begin
            let lag = List.filter (fun i -> i <> me st) (missing ()) in
            if tracing st then
              tracef st "paxos" "%a: reproposing to %d instance(s)" Tid.pp
                fam.f_root (List.length lag);
            fan_out st ~dsts:lag prepare_msg;
            wait_round (retries + 1)
          end
  in
  wait_round 0;
  let ro_instances =
    Hashtbl.fold (fun i (_, ro) acc -> if ro then i :: acc else acc) tally []
  in
  (!refused, missing (), ro_instances)

let coordinate st fam =
  let tid = fam.f_root in
  let local_vote = vote_local_servers st fam in
  let subs = fam.f_remote_sites in
  if subs <> [] then st.stats.n_distributed <- st.stats.n_distributed + 1;
  match local_vote with
  | Protocol.Vote_no -> Two_phase.abort_distributed st fam ~subs
  | Protocol.Vote_yes { read_only = local_ro } ->
      if subs = [] then Two_phase.commit_local st fam ~read_only:local_ro
      else begin
        let acceptors = acceptor_set st ~subs in
        let mb = register_waiter st tid in
        fam.f_prepared <- true;
        fam.f_sites <- me st :: subs;
        fam.f_acceptors <- acceptors;
        (* own prepare record: forced when the acceptor set extends
           beyond this site (a takeover may then commit without us, so
           our spooled updates must be durable before our yes vote is
           visible); spooled in the F = 0 sole-self-acceptor case,
           where it rides the commit force exactly as in 2PC *)
        let prepare_rec =
          Record.Prepare
            {
              p_tid = tid;
              p_coordinator = me st;
              p_protocol = Protocol.Paxos_commit;
              p_sites = fam.f_sites;
              p_acceptors = acceptors;
            }
        in
        if List.exists (fun a -> a <> me st) acceptors then
          ignore (log_append_force st prepare_rec : int)
        else ignore (log_append st prepare_rec : int);
        let prepare_msg =
          Protocol.Prepare
            {
              m_tid = tid;
              m_coordinator = me st;
              m_protocol = Protocol.Paxos_commit;
              m_sites = fam.f_sites;
              m_commit_quorum = 0;
              m_acceptors = acceptors;
            }
        in
        fan_out st ~dsts:subs prepare_msg;
        Camelot_chaos.point ~site:(me st) p_prepare_sent;
        (* cast our own instance's vote (the self-acceptance, if we are
           an acceptor, lands back in [mb] by local hand-off) *)
        Subordinate.paxos_cast_vote st fam
          ~vote:(Protocol.Vote_yes { read_only = local_ro });
        let refused, undecided, ro_instances = collect_ballot0 st fam mb ~prepare_msg in
        if refused then begin
          unregister_waiter st tid;
          Two_phase.abort_distributed st fam ~subs
        end
        else if undecided <> [] then begin
          (* silence after retries: escalate through the acceptors at a
             higher ballot — a unilateral timeout-abort could race a
             takeover that commits. At F = 0 the escalation is wholly
             local and always aborts the silent instance, preserving
             the 2PC timeout behaviour. *)
          let outcome = resolve st fam mb ~attempt:1 in
          adopt st fam outcome;
          unregister_waiter st tid;
          outcome
        end
        else begin
          Camelot_chaos.point ~site:(me st) Two_phase.p_votes_collected;
          let update_subs =
            List.filter (fun s -> s <> me st && not (List.mem s ro_instances)) subs
          in
          if
            update_subs = [] && local_ro && st.config.read_only_optimization
            && acceptors = [ me st ]
          then begin
            (* wholly read-only at F = 0: nothing durable anywhere,
               nothing to log — same as 2PC *)
            unregister_waiter st tid;
            resolve_family st fam Protocol.Committed;
            drop_local_locks st fam;
            Protocol.Committed
          end
          else Two_phase.commit_decided st fam ~update_subs
        end
      end
