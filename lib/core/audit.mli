(** End-to-end serializability auditor.

    The machine (with {!Machine.enable_audit}) records, for every
    committed transaction, the version of each logical page it read (the
    page's install counter at the instant the access permission was
    granted) and the versions its commit installed. {!check} then builds
    the multiversion serialization graph — ww: writer of [v] precedes
    writer of [v+1]; wr: writer of [v] precedes readers of [v]; rw:
    readers of [v] precede the writer of [v+1] — and verifies acyclicity
    over the committed transactions, proving the run serializable.
    Thomas-rule dropped writes install nothing and simply do not appear;
    aborted attempts leave no trace. *)

open Ddbm_model

type t

val create : unit -> t

(** The cohort's access permission for a page was granted; the version it
    observes is captured. Must be called atomically with the grant (no
    simulated time in between). *)
val record_read : t -> Txn.t -> Ids.Page.t -> unit

(** The cohort's commit installed its update of the page (primary copies
    only under replication). Must be called atomically with the CC-level
    install. *)
val record_install : t -> Txn.t -> Ids.Page.t -> unit

val record_commit : t -> Txn.t -> unit
val record_abort : t -> Txn.t -> unit

(** [Ok n]: the committed history over [n] transactions is (multiversion
    view-) serializable; [Error msg] describes a cycle. *)
val check : t -> (int, string) result
