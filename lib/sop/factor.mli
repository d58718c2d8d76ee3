(** Algebraic factoring of SOP covers into multi-level factored forms. *)

type form =
  | Const of bool
  | Lit of int * bool  (** variable index, positive polarity? *)
  | And of form list
  | Or of form list

val factor : Cover.t -> form
(** Factor a cover using repeated weak division by the most frequent
    literal (quick-factor style).  The result is logically equivalent
    to the cover. *)

val literal_count : form -> int
(** Number of literal leaves in the form. *)

val form_cost : form -> int
(** 2-input gate count of a form, ignoring sharing. *)

val depth : form -> int
(** Depth of the form counting each 2-input AND/OR level as 1 (n-ary
    gates are costed as balanced binary trees). *)

val eval : form -> (int -> bool) -> bool
val to_truthtable : int -> form -> Truthtable.t
val pp : vars:(int -> string) -> Format.formatter -> form -> unit
