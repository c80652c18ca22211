module Iarr = Vc_graph.Iarr

(* On-disk layout (all sizes in bytes):

     0   magic            8   "VOLCSNAP"
     8   format version   8   u64 LE
     16  byte-order mark  8   0x0102030405060708 in host order
     24  header length    8   u64 LE, bytes of the header blob
     32  header checksum  8   FNV-1a 64 of the header blob, LE
     40  header blob      header length
     ..  padding to the next 8-byte boundary
     ..  payload segments, each starting on an 8-byte boundary

   The preamble and header blob are little-endian so a mismatched file
   fails with a structured error everywhere; the payload is raw host
   words — the whole point is that [Unix.map_file] turns a segment into
   an {!Iarr.t} with no decode step — and the byte-order mark rejects a
   file written on a different-endian host before any segment is
   touched.  Loading validates preamble + header checksum + segment
   bounds only (O(1), page-lazy); {!verify} additionally recomputes
   every segment checksum. *)

let magic = "VOLCSNAP"
let current_version = 1
let byte_order_mark = 0x0102030405060708L
let preamble_bytes = 40

(* A header blob larger than this is corruption, not a real snapshot:
   it bounds the blind [really_input] on untrusted length fields. *)
let max_header_bytes = 1 lsl 20

type segment = {
  seg_name : string;
  seg_off : int;  (* word offset from the start of the file *)
  seg_len : int;  (* length in words *)
  seg_sum : int64;  (* FNV-1a 64 of the segment's bytes *)
}

type header = {
  version : int;
  builder_version : string;
  problem : string;
  size : int;
  seed : int64;
  n : int;
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

let error_to_string = function
  | Truncated what -> Fmt.str "truncated snapshot (%s)" what
  | Bad_magic -> "not a snapshot file (bad magic)"
  | Bad_version v -> Fmt.str "unsupported snapshot version %d (current %d)" v current_version
  | Bad_byte_order -> "snapshot written with a different byte order"
  | Bad_checksum what -> Fmt.str "checksum mismatch (%s)" what
  | Bad_header what -> Fmt.str "malformed header (%s)" what
  | Io msg -> Fmt.str "i/o error: %s" msg

(* --- FNV-1a 64 ----------------------------------------------------------- *)

let fnv_offset = 0xcbf29ce484222325L
let fnv_prime = 0x100000001b3L

let fnv_byte h b = Int64.mul (Int64.logxor h (Int64.of_int b)) fnv_prime

let fnv_bytes h bytes len =
  let h = ref h in
  for i = 0 to len - 1 do
    h := fnv_byte !h (Char.code (Bytes.unsafe_get bytes i))
  done;
  !h

let fnv_string s = fnv_bytes fnv_offset (Bytes.unsafe_of_string s) (String.length s)

(* --- header blob codec ---------------------------------------------------- *)

let put_u64 buf x = Buffer.add_int64_le buf x
let put_int buf x = put_u64 buf (Int64.of_int x)

let put_str buf s =
  put_int buf (String.length s);
  Buffer.add_string buf s

let encode_header h =
  let buf = Buffer.create 256 in
  put_str buf h.builder_version;
  put_str buf h.problem;
  put_int buf h.size;
  put_u64 buf h.seed;
  put_int buf h.n;
  put_int buf (List.length h.segments);
  List.iter
    (fun s ->
      put_str buf s.seg_name;
      put_int buf s.seg_off;
      put_int buf s.seg_len;
      put_u64 buf s.seg_sum)
    h.segments;
  Buffer.contents buf

exception Malformed of string

let decode_header ?(version = current_version) blob =
  let pos = ref 0 in
  let len = String.length blob in
  let need k what = if len - !pos < k then raise (Malformed ("truncated at " ^ what)) in
  let u64 what =
    need 8 what;
    let x = String.get_int64_le blob !pos in
    pos := !pos + 8;
    x
  in
  let int what =
    let x = u64 what in
    let i = Int64.to_int x in
    if Int64.of_int i <> x || i < 0 then raise (Malformed ("unreasonable " ^ what));
    i
  in
  let str what =
    let k = int (what ^ " length") in
    need k what;
    let s = String.sub blob !pos k in
    pos := !pos + k;
    s
  in
  match
    let builder_version = str "builder-version" in
    let problem = str "problem" in
    let size = int "size" in
    let seed = u64 "seed" in
    let n = int "n" in
    let nsegs = int "segment count" in
    if nsegs > 4096 then raise (Malformed "unreasonable segment count");
    let segments =
      List.init nsegs (fun _ ->
          let seg_name = str "segment name" in
          let seg_off = int "segment offset" in
          let seg_len = int "segment length" in
          let seg_sum = u64 "segment checksum" in
          { seg_name; seg_off; seg_len; seg_sum })
    in
    if !pos <> len then raise (Malformed "trailing bytes");
    { version; builder_version; problem; size; seed; n; segments }
  with
  | h -> Ok h
  | exception Malformed what -> Error (Bad_header what)

(* --- writing --------------------------------------------------------------- *)

let words_per_chunk = 65536

(* Stream one segment to [oc] in host byte order, returning its FNV-1a
   checksum.  Chunked so multi-million-word rows never materialize a
   second copy. *)
let write_segment oc (a : Iarr.t) =
  let len = Iarr.length a in
  let chunk = Bytes.create (8 * words_per_chunk) in
  let sum = ref fnv_offset in
  let i = ref 0 in
  while !i < len do
    let k = min words_per_chunk (len - !i) in
    for j = 0 to k - 1 do
      Bytes.set_int64_ne chunk (8 * j) (Int64.of_int (Iarr.unsafe_get a (!i + j)))
    done;
    sum := fnv_bytes !sum chunk (8 * k);
    output_bytes oc (Bytes.sub chunk 0 (8 * k));
    i := !i + k
  done;
  !sum

let align8 x = (x + 7) land lnot 7

let header_blob_bytes ~builder_version ~problem ~segments =
  8 + String.length builder_version + 8 + String.length problem
  + (8 * 4)
  + List.fold_left (fun acc (name, _) -> acc + 8 + String.length name + 24) 0 segments

let write ~path ~builder_version ~problem ~size ~seed ~n ~segments =
  let blob_len = header_blob_bytes ~builder_version ~problem ~segments in
  let payload_start = align8 (preamble_bytes + blob_len) in
  (* Two passes over the layout: offsets are a pure function of the
     segment lengths, so the header can be finalized only after the
     checksums are known — segments are written first, at their
     pre-computed offsets, then the file is rewound for the header. *)
  let rec offsets word_off = function
    | [] -> []
    | (name, a) :: rest ->
        (name, a, word_off) :: offsets (word_off + Iarr.length a) rest
  in
  let placed = offsets (payload_start / 8) segments in
  match
    let oc = open_out_bin path in
    Fun.protect
      ~finally:(fun () -> close_out_noerr oc)
      (fun () ->
        seek_out oc payload_start;
        let segs =
          List.map
            (fun (name, a, word_off) ->
              let sum = write_segment oc a in
              { seg_name = name; seg_off = word_off; seg_len = Iarr.length a; seg_sum = sum })
            placed
        in
        (* pad the tail so the file length is a whole number of words *)
        let tail = pos_out oc in
        if tail land 7 <> 0 then output_bytes oc (Bytes.make (8 - (tail land 7)) '\000');
        let header =
          {
            version = current_version;
            builder_version;
            problem;
            size;
            seed;
            n;
            segments = segs;
          }
        in
        let blob = encode_header header in
        assert (String.length blob = blob_len);
        seek_out oc 0;
        let pre = Buffer.create preamble_bytes in
        Buffer.add_string pre magic;
        Buffer.add_int64_le pre (Int64.of_int current_version);
        Buffer.add_int64_ne pre byte_order_mark;
        Buffer.add_int64_le pre (Int64.of_int blob_len);
        Buffer.add_int64_le pre (fnv_string blob);
        output_string oc (Buffer.contents pre);
        output_string oc blob;
        (* zero the pad between header and payload *)
        let gap = payload_start - preamble_bytes - blob_len in
        if gap > 0 then output_bytes oc (Bytes.make gap '\000'))
  with
  | () -> Ok ()
  | exception Sys_error msg -> Error (Io msg)

(* --- loading --------------------------------------------------------------- *)

type loaded = {
  hdr : header;
  data : Iarr.t;  (* the whole file as one mapped word array *)
}

let seg_find l name =
  match List.find_opt (fun s -> s.seg_name = name) l.hdr.segments with
  | None -> None
  | Some s -> Some (Iarr.sub l.data ~pos:s.seg_off ~len:s.seg_len)

let read_header ic ~file_bytes =
  if file_bytes < preamble_bytes then Error (Truncated "preamble")
  else begin
    let pre = really_input_string ic preamble_bytes in
    if String.sub pre 0 8 <> magic then Error Bad_magic
    else begin
      let version = Int64.to_int (String.get_int64_le pre 8) in
      if version <> current_version then Error (Bad_version version)
      else if String.get_int64_ne pre 16 <> byte_order_mark then Error Bad_byte_order
      else begin
        let blob_len = Int64.to_int (String.get_int64_le pre 24) in
        let declared_sum = String.get_int64_le pre 32 in
        if blob_len < 0 || blob_len > max_header_bytes then Error (Bad_header "header length")
        else if file_bytes < preamble_bytes + blob_len then Error (Truncated "header")
        else begin
          let blob = really_input_string ic blob_len in
          if fnv_string blob <> declared_sum then Error (Bad_checksum "header")
          else
            match decode_header ~version blob with
            | Error _ as e -> e
            | Ok h ->
                let bad_seg =
                  List.find_opt
                    (fun s ->
                      s.seg_off < 0 || s.seg_len < 0
                      || s.seg_off + s.seg_len > file_bytes / 8)
                    h.segments
                in
                (match bad_seg with
                | Some s -> Error (Truncated ("segment " ^ s.seg_name))
                | None -> Ok h)
        end
      end
    end
  end

let with_file path f =
  match open_in_bin path with
  | exception Sys_error msg -> Error (Io msg)
  | ic ->
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () ->
          match f ic ~file_bytes:(in_channel_length ic) with
          | r -> r
          | exception Sys_error msg -> Error (Io msg)
          | exception End_of_file -> Error (Truncated "unexpected end of file"))

let inspect ~path = with_file path read_header

let load ~path =
  with_file path (fun ic ~file_bytes ->
      match read_header ic ~file_bytes with
      | Error _ as e -> e
      | Ok hdr -> (
          match Unix.openfile path [ Unix.O_RDONLY ] 0 with
          | exception Unix.Unix_error (e, _, _) -> Error (Io (Unix.error_message e))
          | fd ->
              Fun.protect
                ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
                (fun () ->
                  (* [shared:false] is MAP_PRIVATE: the pages are shared
                     read-only through the page cache across every process
                     that maps this file, and a stray write would go to a
                     private copy instead of corrupting the store. *)
                  match
                    Bigarray.array1_of_genarray
                      (Unix.map_file fd Bigarray.int Bigarray.c_layout false
                         [| file_bytes / 8 |])
                  with
                  | data -> Ok { hdr; data }
                  | exception Unix.Unix_error (e, _, _) -> Error (Io (Unix.error_message e)))))

(* Full validation: the O(1) load checks plus a byte-level re-checksum of
   every segment. *)
let verify ~path =
  with_file path (fun ic ~file_bytes ->
      match read_header ic ~file_bytes with
      | Error _ as e -> e
      | Ok hdr ->
          let chunk = Bytes.create (8 * words_per_chunk) in
          let rec check = function
            | [] -> Ok hdr
            | s :: rest ->
                seek_in ic (8 * s.seg_off);
                let sum = ref fnv_offset in
                let left = ref (8 * s.seg_len) in
                while !left > 0 do
                  let k = min !left (Bytes.length chunk) in
                  really_input ic chunk 0 k;
                  sum := fnv_bytes !sum chunk k;
                  left := !left - k
                done;
                if !sum <> s.seg_sum then Error (Bad_checksum ("segment " ^ s.seg_name))
                else check rest
          in
          check hdr.segments)
