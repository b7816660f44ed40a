(** The archive format used for multi-file transfers: "only one file is
    transferred, although it may be a tar file containing many more"
    (paper section 5.9).  A simple counted-entry archive: each member is
    a name and contents. *)

val pack : (string * string) list -> string
(** Archive a list of (name, contents) members. *)

val checksum : (string * string) list -> int
(** [Checksum.adler32 (pack members)], streamed member by member — the
    archive is never materialized.  The plain-string reference for
    {!checksum_docs}. *)

val pack_docs : (string * Sink.doc) list -> string
(** As {!pack} over chunked documents — one materialization, into a
    pre-sized buffer; the members themselves are never flattened. *)

val packed_size_docs : (string * Sink.doc) list -> int
(** [String.length (pack_docs members)], computed without packing. *)

val checksum_docs : (string * Sink.doc) list -> int
(** As {!checksum} over chunked documents: neither the members nor the
    archive are ever materialized. *)

val unpack : string -> ((string * string) list, string) result
(** Recover the members; [Error] describes the corruption. *)
