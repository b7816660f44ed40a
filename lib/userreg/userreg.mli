(** New user registration (paper section 5.10).

    Before each term the registrar's list of students is loaded into the
    users relation: no login, a unique users id, and the MIT ID stored
    only as a crypt() hash salted with the student's initials.  A
    registration server on the Moira machine then answers three UDP
    requests — verify_user, grab_login, set_password — authenticated by
    an encrypted-ID authenticator, so a student can create their own
    account from any workstation with no staff intervention. *)

(** {1 Registrar tape} *)

type tape_entry = {
  first : string;
  middle : string;
  last : string;
  id_number : string;  (** e.g. "123-45-6789"; hyphens ignored. *)
  class_year : string;  (** An alias-validated class, e.g. "1991". *)
}

val load_registrar_tape :
  Moira.Glue.t -> tape_entry list -> (int, int) result
(** Add every student not already present (matched by hashed ID) as a
    status-0, login-less user via [add_user].  Returns how many were
    added, or the first query error. *)

(** {1 Authenticators} *)

val make_authenticator :
  first:string -> last:string -> id_number:string -> extra:string list ->
  string
(** The client-side authenticator: the ID (hyphens stripped), its crypt
    hash, and any extra arguments (login or password), all encrypted
    under the hash. *)

(** {1 The registration server} *)

(** The three request numbers on the userreg UDP port (PROTOCOL.md's
    registration section; checked by [moira_lint]). *)

val op_verify : int
val op_grab : int
val op_setpw : int

type server

type verify_status =
  | Reg_ok  (** Found and registerable. *)
  | Already_registered
  | Not_found

val start :
  glue:Moira.Glue.t -> kdc:Krb.Kdc.t -> Netsim.Host.t -> server
(** Start the registration server on the (database) host: registers the
    network service ["userreg"]. *)

(** {1 The userreg client program} *)

type reg_error =
  | Verify_failed of verify_status
  | Login_taken
  | Bad_authenticator
  | Server_unreachable
  | Query_failed of int

val verify_user :
  Netsim.Net.t -> src:string -> server:string ->
  first:string -> last:string -> id_number:string ->
  (verify_status, reg_error) result
(** The verify_user request alone. *)

val register :
  ?kdc:Krb.Kdc.t ->
  Netsim.Net.t -> src:string -> server:string ->
  first:string -> middle:string -> last:string -> id_number:string ->
  login:string -> password:string ->
  (unit, reg_error) result
(** The full userreg flow: verify_user, then grab_login (which creates
    the account's pobox, group, home filesystem and quota, and reserves
    the name with Kerberos), then set_password.  [middle] is displayed
    but not used for authentication, as in the paper.

    When [kdc] is given, the paper's two-step name check runs first:
    "it tries to get initial tickets for the user name from Kerberos; if
    this fails (indicating that the username is free and may be
    registered), it then sends a grab_login request." *)

val reg_error_to_string : reg_error -> string
(** Render an error for diagnostics. *)
