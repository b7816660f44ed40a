(** The client side of a GDB connection. *)

type t

(** Why a call could not produce a reply. *)
type error =
  | Net of Netsim.Net.failure  (** Transport failure; connection dropped. *)
  | Protocol of string  (** The reply failed to parse. *)
  | Rpc of int  (** The RPC layer refused (a [Gdb_err] com_err code). *)

val error_to_string : error -> string
(** Render an error for diagnostics. *)

val connect :
  Netsim.Net.t -> src:string -> dst:string -> service:string ->
  (t, error) result
(** Open a connection from host [src] to [service] on host [dst]. *)

val call :
  t -> ?ctx:string -> op:int -> string list ->
  (int * string list list, error) result
(** Send one application request; on success return the server's
    [(error_code, tuples)].  [?ctx] is an opaque serialized trace
    context carried in the request trailer (default none).  A
    transport failure closes the connection. *)

val disconnect : t -> (unit, error) result
(** Politely close.  The connection is unusable afterwards regardless. *)

val is_connected : t -> bool
(** Whether the connection is believed open. *)
