(** The centralized two-phase commit protocol as two pure transition
    tables: one for a cohort, one for the coordinator.

      load -> work -> Work_done -> Do_prepare -> Vote -> decision -> ack

    This module is the protocol's single statement. [Machine]'s [serve]
    (a cohort) and [collect] (the coordinator) feed it their inputs and
    perform the actions it returns; the CPU, disk, log and trace work of
    each action is theirs. Neither table reads the machine, a mailbox or
    the engine, so a model checker can compose them directly.

    Every match here is exhaustive with no wildcard or guard, so a new
    state, input or action fails the build until each of its rows is
    written. The states, inputs and actions are immediates, or ([Acks _],
    [Abort_attempt _]) built from constants only, so a step allocates
    nothing. *)

(** {1 Cohort} *)

(** One cohort of one attempt, as its coordinator and the crash ledger see
    it. *)
type cohort_state =
  | Unloaded  (** its load message has not been delivered: no process *)
  | Working
      (** loaded: running its accesses, then waiting for the prepare. The
          only state a node crash can fail over to the backup. *)
  | Preparing
      (** running the CC prepare step; it may block in its CC manager and
          reads no message until the step's vote is fed back *)
  | Voted_yes  (** prepared: in doubt until the decision arrives *)
  | Voted_no  (** refused; waits for the abort decision *)
  | Aborting
      (** aborted before voting, on its own or at a peer's demand, and
          released its CC footprint; waits for the abort decision *)
  | Committed  (** acted on a commit decision and acknowledged it *)
  | Aborted  (** acted on an abort decision and acknowledged it *)

type cohort_input =
  | Load  (** the coordinator's load message is delivered *)
  | Do_prepare
  | Do_commit
  | Do_abort  (** the coordinator's messages *)
  | Yes
  | No  (** the CC prepare step's vote, fed back after [Prepare] *)
  | Failed
      (** the cohort's process raised [Txn.Aborted]: its own CC manager
          rejected it, or a peer, a deadlock or a crash doomed it *)
  | Timeout  (** a receive timed out *)
  | Relocated
      (** a receive timed out at a primary whose role a backup proxy has
          taken over *)

type cohort_action =
  | Nothing
  | Start  (** start the cohort's process: its accesses, then Work_done *)
  | Prepare
      (** run the CC prepare step (its log records, the prepare record
          forced on yes) and feed back its vote as [Yes] or [No] *)
  | Send_yes  (** count the cohort prepared and send YES *)
  | Send_no  (** send NO *)
  | Resend_yes
  | Resend_no  (** repeat a vote from memory; the CC step never reruns *)
  | Resend_work_done
  | Inquire
      (** ask what was decided: the live coordinator answers, otherwise
          the decision log does (no entry: presumed abort) *)
  | Release  (** release the CC footprint of an attempt aborted early *)
  | Install
      (** commit: install the updates, release the footprint, log the
          commit and acknowledge *)
  | Discard  (** release the footprint, log the abort and acknowledge *)
  | Ack  (** acknowledge an abort whose footprint is already released *)
  | Stop  (** end the process; the state now belongs to the proxy *)

(** The action a cohort in the given state takes on an input. *)
val cohort_step : cohort_state -> cohort_input -> cohort_action

(** The state a cohort is in after taking an action: the state the
    action names, or the state it was in. *)
val after : cohort_state -> cohort_action -> cohort_state

(** Whether a node crash makes the cohort a casualty of its attempt: it
    has not promised a YES vote, so it cannot survive in doubt. *)
val casualty : cohort_state -> bool

(** {1 Coordinator} *)

type decision = Commit | Abort

(** What the coordinator waits for from each owing cohort. *)
type phase =
  | Work  (** its Work_done *)
  | Votes  (** its vote *)
  | Acks of decision  (** its acknowledgement of the logged decision *)

type coord_input =
  | Work_done
  | Vote_yes
  | Vote_no
  | Done_ack
  | Abort_demand
      (** a cohort aborted on its own, or a CC manager demands the
          attempt's abort; the message carries the reason *)
  | Inquiry
  | Silence  (** a receive timed out *)

type coord_action =
  | Wait  (** keep waiting; the round is unchanged *)
  | Settle  (** strike the sender's debt; the round starts over *)
  | Refused  (** strike the sender's NO vote, then abort: [Cert_failed] *)
  | Reprompt
      (** re-send this phase's message to the sender; the round is
          unchanged, so an aborting cohort's inquiries cannot starve the
          timeout *)
  | Retry
      (** re-send this phase's message to every owing cohort that
          {!resends} names, then wait one round longer *)
  | Orphan
      (** give up: clean up the owing cohorts out of band; the phase
          ends *)
  | Abort_attempt of Ddbm_model.Txn.abort_reason
      (** end the phase: the attempt aborts for this reason *)
  | Abort_as_told
      (** end the phase: the attempt aborts for the reason the input
          carries (the message's, or the crash's) *)

(** The coordinator's action on an input in a phase. [owed]: the
    sender still owes the phase its message; for a timeout, some owing
    cohort is one the phase {!resends} to. [doomed]: a crash doomed the
    attempt before its decision. [exhausted]: the retry budget is
    spent. *)
val coord_step :
  phase -> coord_input -> owed:bool -> doomed:bool -> exhausted:bool ->
  coord_action

(** Whether a timeout in [phase] re-sends to an owing cohort in the given
    state. A loaded cohort re-sends its own Work_done, so the work phase
    re-sends only loads never delivered. *)
val resends : phase -> cohort_state -> bool
