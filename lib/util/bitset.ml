(* Element [i] is bit [i mod bits] of word [i / bits]; word 0 is the
   record's [w0], word [k > 0] is [rest.(k - 1)]. With [bits] =
   Sys.int_size every bit of an OCaml int is used, the sign bit
   included: [1 lsl (bits - 1)] is [min_int], and [land]/[lor] treat it
   like any other bit. *)

let bits = Sys.int_size

type t = { mutable card : int; mutable w0 : int; mutable rest : int array }

let create () = { card = 0; w0 = 0; rest = [||] }

let mem t i =
  if i < bits then i >= 0 && t.w0 land (1 lsl i) <> 0
  else
    let k = (i / bits) - 1 in
    k < Array.length t.rest
    && Array.unsafe_get t.rest k land (1 lsl (i mod bits)) <> 0

let grow t k =
  let len = Array.length t.rest in
  let rest = Array.make (max (k + 1) (2 * len)) 0 in
  Array.blit t.rest 0 rest 0 len;
  t.rest <- rest

let add t i =
  if i < 0 then invalid_arg "Bitset.add: negative element";
  if i < bits then begin
    let m = 1 lsl i in
    if t.w0 land m = 0 then begin
      t.w0 <- t.w0 lor m;
      t.card <- t.card + 1
    end
  end
  else begin
    let k = (i / bits) - 1 in
    if k >= Array.length t.rest then grow t k;
    let m = 1 lsl (i mod bits) in
    let w = Array.unsafe_get t.rest k in
    if w land m = 0 then begin
      Array.unsafe_set t.rest k (w lor m);
      t.card <- t.card + 1
    end
  end

let remove t i =
  if mem t i then begin
    let m = 1 lsl (i mod bits) in
    if i < bits then t.w0 <- t.w0 land lnot m
    else begin
      let k = (i / bits) - 1 in
      t.rest.(k) <- t.rest.(k) land lnot m
    end;
    t.card <- t.card - 1
  end

let cardinal t = t.card

let clear t =
  t.card <- 0;
  t.w0 <- 0;
  t.rest <- [||]

(* Conses the set bits of [w] (worth [base] + bit) onto [acc], highest
   first, so the result reads ascending. The scan starts at the word's
   top set bit: small voter ids cost a few steps, not [bits]. *)
let cons_word base w acc =
  if w = 0 then acc
  else begin
    let top = ref 0 in
    while !top < bits - 1 && w lsr (!top + 1) <> 0 do
      incr top
    done;
    let acc = ref acc in
    for j = !top downto 0 do
      if w land (1 lsl j) <> 0 then acc := (base + j) :: !acc
    done;
    !acc
  end

let elements t =
  let acc = ref [] in
  for k = Array.length t.rest - 1 downto 0 do
    acc := cons_word ((k + 1) * bits) t.rest.(k) !acc
  done;
  cons_word 0 t.w0 !acc
