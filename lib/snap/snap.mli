(** Versioned binary instance snapshots.

    A snapshot is a checksummed header plus raw [Iarr] (bigarray)
    segments: the CSR rows of a graph, label rows, anything flat.
    {!write} streams the segments to disk; {!load} maps the whole file
    with [Unix.map_file] and hands back zero-copy views — the O(1),
    page-lazy path the serving tier rides — while {!verify} additionally
    re-checksums every segment byte.

    Decoding is total: every malformed input — truncated file, torn
    header, bad checksum, wrong version, foreign byte order — comes back
    as a structured {!error}, never an exception or a crash. *)

module Iarr = Vc_graph.Iarr

val current_version : int

type segment = {
  seg_name : string;
  seg_off : int;  (** word offset from the start of the file *)
  seg_len : int;  (** length in words *)
  seg_sum : int64;  (** FNV-1a 64 of the segment's bytes *)
}

type header = {
  version : int;
  builder_version : string;
      (** Invalidation token: bump it whenever any instance builder's
          output changes and every existing snapshot becomes stale. *)
  problem : string;
  size : int;
  seed : int64;
  n : int;  (** node count of the snapshotted instance *)
  segments : segment list;
}

type error =
  | Truncated of string
  | Bad_magic
  | Bad_version of int
  | Bad_byte_order
  | Bad_checksum of string
  | Bad_header of string
  | Io of string

val error_to_string : error -> string

val fnv_string : string -> int64
(** FNV-1a 64 of a string — the checksum function used throughout the
    format, exposed for key hashing in {!Store}. *)

val encode_header : header -> string
(** The header blob (without the file preamble).  [version] is carried
    by the preamble, not the blob. *)

val decode_header : ?version:int -> string -> (header, error) result
(** Inverse of {!encode_header}; [version] (default
    {!current_version}) fills the decoded record's [version] field.
    Total: malformed blobs return [Error (Bad_header _)]. *)

val write :
  path:string ->
  builder_version:string ->
  problem:string ->
  size:int ->
  seed:int64 ->
  n:int ->
  segments:(string * Iarr.t) list ->
  (unit, error) result
(** Write a snapshot to [path] (not atomic — {!Store.publish} wraps this
    with a temp file and rename). *)

type loaded = {
  hdr : header;
  data : Iarr.t;  (** the whole file as one mapped word array *)
}

val seg_find : loaded -> string -> Iarr.t option
(** Zero-copy view of a named segment of the mapped file. *)

val load : path:string -> (loaded, error) result
(** Map the file and validate preamble, header checksum and segment
    bounds — O(1) in the payload size; segment bytes fault in lazily as
    they are touched and are shared across processes via the page
    cache.  Segment {e checksums} are not recomputed here; see
    {!verify}. *)

val inspect : path:string -> (header, error) result
(** {!load}'s validation without mapping the payload. *)

val verify : path:string -> (header, error) result
(** {!inspect} plus a byte-level re-checksum of every segment. *)
