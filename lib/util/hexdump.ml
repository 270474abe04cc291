let hex_of_nibble n =
  if n < 10 then Char.chr (Char.code '0' + n) else Char.chr (Char.code 'a' + n - 10)

let encode s =
  let out = Bytes.create (2 * String.length s) in
  String.iteri
    (fun i c ->
      let b = Char.code c in
      Bytes.set out (2 * i) (hex_of_nibble (b lsr 4));
      Bytes.set out ((2 * i) + 1) (hex_of_nibble (b land 0xf)))
    s;
  Bytes.unsafe_to_string out

let nibble_of_hex c =
  match c with
  | '0' .. '9' -> Char.code c - Char.code '0'
  | 'a' .. 'f' -> Char.code c - Char.code 'a' + 10
  | 'A' .. 'F' -> Char.code c - Char.code 'A' + 10
  | _ -> invalid_arg "Hexdump.decode: non-hex character"

let decode hex =
  let n = String.length hex in
  if n mod 2 <> 0 then invalid_arg "Hexdump.decode: odd-length input";
  String.init (n / 2) (fun i ->
      Char.chr
        ((nibble_of_hex hex.[2 * i] lsl 4) lor nibble_of_hex hex.[(2 * i) + 1]))

let short ?(len = 8) s =
  let h = encode s in
  if String.length h <= len then h else String.sub h 0 len
