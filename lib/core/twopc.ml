type cohort_state =
  | Unloaded | Working | Preparing | Voted_yes | Voted_no | Aborting
  | Committed | Aborted

type cohort_input =
  | Load | Do_prepare | Do_commit | Do_abort | Yes | No | Failed | Timeout
  | Relocated

type cohort_action =
  | Nothing | Start | Prepare | Send_yes | Send_no | Resend_yes | Resend_no
  | Resend_work_done | Inquire | Release | Install | Discard | Ack | Stop

(* Rows a cohort cannot reach answer [Nothing]: a message or a timeout
   before its process starts or while it prepares (it reads no mailbox
   then), a vote outside a prepare, and a failure once it has voted or
   released. A primary that has handed its role to a proxy stops, whatever
   the proxy has made of the state since. A decision ends the process, so
   a decided cohort acts on nothing: a repeated decision goes
   unanswered. *)
let cohort_step state input =
  match (state, input) with
  | Unloaded, Load -> Start
  | ( ( Working | Preparing | Voted_yes | Voted_no | Aborting | Committed
      | Aborted ),
      Load ) ->
      Nothing
  | Working, Do_prepare -> Prepare
  | (Working | Voted_yes | Voted_no), Do_commit -> Install
  | (Working | Voted_yes | Voted_no), Do_abort -> Discard
  | Aborting, Do_abort -> Ack
  | Aborting, (Do_prepare | Do_commit) -> Nothing
  | Voted_yes, Do_prepare -> Resend_yes
  | Voted_no, (Do_prepare | Timeout) -> Resend_no
  | Preparing, Yes -> Send_yes
  | Preparing, No -> Send_no
  | (Working | Preparing), Failed -> Release
  | Working, Timeout -> Resend_work_done
  | (Voted_yes | Aborting), Timeout -> Inquire
  | ( ( Unloaded | Working | Preparing | Voted_yes | Voted_no | Aborting
      | Committed | Aborted ),
      Relocated ) ->
      Stop
  | Unloaded, (Do_prepare | Do_commit | Do_abort | Yes | No | Failed | Timeout)
  | Preparing, (Do_prepare | Do_commit | Do_abort | Timeout)
  | (Working | Voted_yes | Voted_no | Aborting), (Yes | No)
  | (Voted_yes | Voted_no | Aborting), Failed
  | ( (Committed | Aborted),
      (Do_prepare | Do_commit | Do_abort | Yes | No | Failed | Timeout) ) ->
      Nothing

let after state action =
  match action with
  | Start -> Working
  | Prepare -> Preparing
  | Send_yes -> Voted_yes
  | Send_no -> Voted_no
  | Release -> Aborting
  | Install -> Committed
  | Discard | Ack -> Aborted
  | Nothing | Resend_yes | Resend_no | Resend_work_done | Inquire | Stop ->
      state

let casualty = function
  | Unloaded | Working | Preparing | Voted_no | Aborting -> true
  | Voted_yes | Committed | Aborted -> false

type decision = Commit | Abort
type phase = Work | Votes | Acks of decision

type coord_input =
  | Work_done | Vote_yes | Vote_no | Done_ack | Abort_demand | Inquiry
  | Silence

type coord_action =
  | Wait | Settle | Refused | Reprompt | Retry | Orphan
  | Abort_attempt of Ddbm_model.Txn.abort_reason
  | Abort_as_told

(* A message from a cohort that owes nothing, or that the phase does not
   wait for, is a late or duplicate copy: ignored. A crash doom ends the
   phases before the decision at their next timeout; a logged commit is
   re-sent without bound; an abort decision gives up after the budget. *)
let coord_step phase input ~owed ~doomed ~exhausted =
  match (phase, input) with
  | Work, Work_done | Votes, Vote_yes | Acks (Commit | Abort), Done_ack ->
      if owed then Settle else Wait
  | Votes, Vote_no -> if owed then Refused else Wait
  | (Work | Votes), Abort_demand -> Abort_as_told
  | Work, Inquiry ->
      (* a cohort inquires before the prepare only when it is aborting
         and its Cohort_aborted was lost *)
      Abort_attempt Ddbm_model.Txn.Peer_abort
  | (Votes | Acks (Commit | Abort)), Inquiry -> if owed then Reprompt else Wait
  | Work, (Vote_yes | Vote_no | Done_ack)
  | Votes, (Work_done | Done_ack)
  | ( Acks (Commit | Abort),
      (Work_done | Vote_yes | Vote_no | Abort_demand) ) ->
      Wait
  | (Work | Votes), Silence ->
      (* every owing cohort's load arrived: each re-sends its own
         Work_done, so the coordinator waits on without charging its
         budget *)
      if doomed then Abort_as_told
      else if not owed then Retry
      else if exhausted then Abort_attempt Ddbm_model.Txn.Timed_out
      else Retry
  | Acks Commit, Silence -> Retry
  | Acks Abort, Silence -> if exhausted then Orphan else Retry

let resends phase state =
  match phase with
  | Work -> (
      match state with
      | Unloaded -> true
      | Working | Preparing | Voted_yes | Voted_no | Aborting | Committed
      | Aborted ->
          false)
  | Votes | Acks (Commit | Abort) -> true
