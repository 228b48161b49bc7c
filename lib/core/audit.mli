(** End-to-end serializability auditor.

    A sink on the machine's typed event stream ({!Machine.enable_audit}
    attaches it). For every committed transaction it records the version
    of each logical page the transaction read (the page's install count
    when the access's [Page_read] event arrives) and the versions its
    [Page_installed] events created, numbering versions in stream order;
    [Committed] and [Aborted] settle each attempt. {!check} then builds
    the multiversion serialization graph — ww: writer of [v] precedes
    writer of [v+1]; wr: writer of [v] precedes readers of [v]; rw:
    readers of [v] precede the writer of [v+1] — and verifies acyclicity
    over the committed transactions, proving the run serializable.
    Thomas-rule dropped writes install nothing and simply do not appear;
    aborted attempts leave no trace. *)

open Ddbm_model

type t

val create : unit -> t

(** Feed one event of the stream; only [Page_read], [Page_installed],
    [Committed] and [Aborted] are read. *)
val sink : t -> Tracer.sink

(** [Ok n]: the committed history over [n] transactions is (multiversion
    view-) serializable; [Error msg] describes a cycle. *)
val check : t -> (int, string) result
