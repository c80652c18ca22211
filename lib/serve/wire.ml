module Json = Vc_obs.Json

type t = {
  fd : Unix.file_descr;
  dec : Protocol.decoder;
  mutable alive : bool;
}

let of_fd fd = { fd; dec = Protocol.decoder (); alive = true }

let close c =
  if c.alive then begin
    c.alive <- false;
    try Unix.close c.fd with Unix.Unix_error _ -> ()
  end

(* Blocking: frames are small, and a peer that stops reading only stalls
   its own channel. *)
let write c s =
  c.alive
  &&
  try
    let len = String.length s in
    let off = ref 0 in
    while !off < len do
      off := !off + Unix.write_substring c.fd s !off (len - !off)
    done;
    true
  with Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET), _, _) ->
    close c;
    false

type input = Eof | Data

(* [feed] copies, so one buffer per domain serves every channel. *)
let scratch = Domain.DLS.new_key (fun () -> Bytes.create 65536)

let read c =
  if not c.alive then Eof
  else
    let buf = Domain.DLS.get scratch in
    match Unix.read c.fd buf 0 (Bytes.length buf) with
    | 0 ->
        close c;
        Eof
    | n ->
        Protocol.feed c.dec buf n;
        Data
    | exception Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE), _, _) ->
        close c;
        Eof

(* --- server side -------------------------------------------------------------- *)

type rejection = { id : int; message : string; close : bool }

let next_request dec =
  match Protocol.next_frame dec with
  | Ok None -> None
  | Error msg -> Some (Error { id = 0; message = "bad frame: " ^ msg; close = true })
  | Ok (Some body) ->
      Some
        (match Json.parse body with
        | Error message -> Error { id = 0; message; close = false }
        | Ok v -> (
            match Protocol.request_of_json v with
            | Ok req -> Ok req
            | Error message ->
                let id =
                  match Option.bind (Json.member v "id") Json.to_int with
                  | Some id when id >= 0 -> id
                  | _ -> 0
                in
                Error { id; message; close = false }))

(* --- client side -------------------------------------------------------------- *)

let describe = function
  | Unix.ADDR_UNIX path -> path
  | Unix.ADDR_INET (a, port) -> Printf.sprintf "%s:%d" (Unix.string_of_inet_addr a) port

let connect addr =
  let rec go tries =
    let fd = Unix.socket ~cloexec:true (Unix.domain_of_sockaddr addr) Unix.SOCK_STREAM 0 in
    match Unix.connect fd addr with
    | () -> Ok (of_fd fd)
    | exception Unix.Unix_error (e, _, _) -> (
        Unix.close fd;
        match e with
        | (Unix.ECONNREFUSED | Unix.ENOENT | Unix.ENOTSOCK) when tries > 0 ->
            Unix.sleepf 0.01;
            go (tries - 1)
        | _ -> Error (Printf.sprintf "connect %s: %s" (describe addr) (Unix.error_message e)))
  in
  go 1000

let send c req =
  ignore (write c (Protocol.frame (Json.to_string (Protocol.request_to_json req))) : bool)

let rec read_body c =
  match Protocol.next_frame c.dec with
  | Ok (Some body) -> Ok body
  | Error msg -> Error ("reply framing: " ^ msg)
  | Ok None -> (
      match read c with
      | Data -> read_body c
      | Eof -> Error "connection closed before a whole reply arrived")
