(** The grab-bag of routines the Moira library exports to servers and
    clients alongside the RPC calls (paper section 5.6.3): string
    utilities and flag conversion — the menu package lives in
    {!Menu}. *)

val trim_whitespace : string -> string
(** Strip leading and trailing ASCII whitespace. *)

val split_words : string -> string list
(** Split on runs of whitespace, dropping empties. *)

val canonicalize_hostname : string -> string
(** Alias of {!Lookup.canon_host}: trim and upper-case. *)

(** {1 Flag conversion} — "convert between flags integer and
    human-readable string". *)

val user_status_to_string : int -> string
(** The five account statuses of section 6 (USERS.status). *)

val user_status_of_string : string -> int option
(** Inverse of {!user_status_to_string} (exact match). *)

val nfsphys_status_to_string : int -> string
(** Render the nfsphys status bit field ("student+faculty", ...). *)
