//! Primitive operator semantics: arithmetic, negation, comparison, and
//! widening.

use genus_check::hir::NumKind;
use genus_heap::value::{ErrorKind, RuntimeError, Value};
use genus_syntax::ast::BinOp;
use genus_types::PrimTy;

type RResult<T> = Result<T, RuntimeError>;

/// Applies a numeric widening (int→long/double, long→double, char→int);
/// non-widening pairs pass through unchanged.
#[must_use]
pub fn widen_value(v: Value, to: PrimTy) -> Value {
    match (v, to) {
        (Value::Int(x), PrimTy::Long) => Value::Long(i64::from(x)),
        (Value::Int(x), PrimTy::Double) => Value::Double(f64::from(x)),
        (Value::Long(x), PrimTy::Double) => Value::Double(x as f64),
        (Value::Char(c), PrimTy::Int) => Value::Int(c as i32),
        (v, _) => v,
    }
}

/// Negates a number of kind `nk`, wrapping like Java.
///
/// # Errors
///
/// `Other` when `v` is not a number of that kind.
pub fn negate(nk: NumKind, v: Value) -> RResult<Value> {
    Ok(match (nk, v) {
        (NumKind::Int, Value::Int(x)) => Value::Int(x.wrapping_neg()),
        (NumKind::Long, Value::Long(x)) => Value::Long(x.wrapping_neg()),
        (NumKind::Double, Value::Double(x)) => Value::Double(-x),
        (_, v) => {
            return Err(RuntimeError::new(
                ErrorKind::Other,
                format!("cannot negate {v:?}"),
            ))
        }
    })
}

/// Evaluates a numeric arithmetic operator with Java wrapping semantics.
///
/// # Errors
///
/// `ArithmeticException` on integer division/remainder by zero; `Other`
/// on operand kind mismatches.
pub fn arith(op: BinOp, nk: NumKind, l: Value, r: Value) -> RResult<Value> {
    match nk {
        NumKind::Int => {
            let (Value::Int(a), Value::Int(b)) = (&l, &r) else {
                return Err(RuntimeError::new(
                    ErrorKind::Other,
                    "int arithmetic on non-ints",
                ));
            };
            let (a, b) = (*a, *b);
            Ok(Value::Int(match op {
                BinOp::Add => a.wrapping_add(b),
                BinOp::Sub => a.wrapping_sub(b),
                BinOp::Mul => a.wrapping_mul(b),
                BinOp::Div => {
                    if b == 0 {
                        return Err(RuntimeError::new(ErrorKind::Arithmetic, "/ by zero"));
                    }
                    a.wrapping_div(b)
                }
                BinOp::Rem => {
                    if b == 0 {
                        return Err(RuntimeError::new(ErrorKind::Arithmetic, "% by zero"));
                    }
                    a.wrapping_rem(b)
                }
                _ => return Err(RuntimeError::new(ErrorKind::Other, "bad arith op")),
            }))
        }
        NumKind::Long => {
            let (Value::Long(a), Value::Long(b)) = (&l, &r) else {
                return Err(RuntimeError::new(
                    ErrorKind::Other,
                    "long arithmetic on non-longs",
                ));
            };
            let (a, b) = (*a, *b);
            Ok(Value::Long(match op {
                BinOp::Add => a.wrapping_add(b),
                BinOp::Sub => a.wrapping_sub(b),
                BinOp::Mul => a.wrapping_mul(b),
                BinOp::Div => {
                    if b == 0 {
                        return Err(RuntimeError::new(ErrorKind::Arithmetic, "/ by zero"));
                    }
                    a.wrapping_div(b)
                }
                BinOp::Rem => {
                    if b == 0 {
                        return Err(RuntimeError::new(ErrorKind::Arithmetic, "% by zero"));
                    }
                    a.wrapping_rem(b)
                }
                _ => return Err(RuntimeError::new(ErrorKind::Other, "bad arith op")),
            }))
        }
        NumKind::Double => {
            let (Value::Double(a), Value::Double(b)) = (&l, &r) else {
                return Err(RuntimeError::new(
                    ErrorKind::Other,
                    "double arithmetic mismatch",
                ));
            };
            let (a, b) = (*a, *b);
            Ok(Value::Double(match op {
                BinOp::Add => a + b,
                BinOp::Sub => a - b,
                BinOp::Mul => a * b,
                BinOp::Div => a / b,
                BinOp::Rem => a % b,
                _ => return Err(RuntimeError::new(ErrorKind::Other, "bad arith op")),
            }))
        }
    }
}

/// Evaluates a numeric comparison (NaN compares false except `!=`).
///
/// # Errors
///
/// `Other` on operand kind mismatches.
pub fn compare(op: BinOp, nk: NumKind, l: Value, r: Value) -> RResult<Value> {
    let ord: std::cmp::Ordering = match nk {
        NumKind::Int => {
            let (Value::Int(a), Value::Int(b)) = (&l, &r) else {
                return Err(RuntimeError::new(
                    ErrorKind::Other,
                    "int comparison mismatch",
                ));
            };
            a.cmp(b)
        }
        NumKind::Long => {
            let (Value::Long(a), Value::Long(b)) = (&l, &r) else {
                return Err(RuntimeError::new(
                    ErrorKind::Other,
                    "long comparison mismatch",
                ));
            };
            a.cmp(b)
        }
        NumKind::Double => {
            let (Value::Double(a), Value::Double(b)) = (&l, &r) else {
                return Err(RuntimeError::new(
                    ErrorKind::Other,
                    "double comparison mismatch",
                ));
            };
            match a.partial_cmp(b) {
                Some(o) => o,
                None => {
                    // NaN: all comparisons false, != true.
                    return Ok(Value::Bool(matches!(op, BinOp::Ne)));
                }
            }
        }
    };
    use std::cmp::Ordering::{Equal, Greater, Less};
    Ok(Value::Bool(match op {
        BinOp::Lt => ord == Less,
        BinOp::Le => ord != Greater,
        BinOp::Gt => ord == Greater,
        BinOp::Ge => ord != Less,
        BinOp::Eq => ord == Equal,
        BinOp::Ne => ord != Equal,
        _ => return Err(RuntimeError::new(ErrorKind::Other, "bad comparison op")),
    }))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn int_arith_wraps_and_divides() {
        let v = arith(
            BinOp::Add,
            NumKind::Int,
            Value::Int(i32::MAX),
            Value::Int(1),
        )
        .unwrap();
        assert!(matches!(v, Value::Int(i32::MIN)));
        let v = arith(BinOp::Div, NumKind::Int, Value::Int(7), Value::Int(2)).unwrap();
        assert!(matches!(v, Value::Int(3)));
        let e = arith(BinOp::Div, NumKind::Int, Value::Int(7), Value::Int(0)).unwrap_err();
        assert_eq!(e.kind, ErrorKind::Arithmetic);
        let e = arith(BinOp::Rem, NumKind::Long, Value::Long(7), Value::Long(0)).unwrap_err();
        assert_eq!(e.kind, ErrorKind::Arithmetic);
    }

    #[test]
    fn double_division_by_zero_is_infinite() {
        let v = arith(
            BinOp::Div,
            NumKind::Double,
            Value::Double(1.0),
            Value::Double(0.0),
        )
        .unwrap();
        assert!(matches!(v, Value::Double(x) if x.is_infinite()));
    }

    #[test]
    fn comparisons() {
        let v = compare(BinOp::Lt, NumKind::Int, Value::Int(1), Value::Int(2)).unwrap();
        assert!(matches!(v, Value::Bool(true)));
        let v = compare(BinOp::Ge, NumKind::Long, Value::Long(5), Value::Long(5)).unwrap();
        assert!(matches!(v, Value::Bool(true)));
        // NaN: every comparison false except `!=`.
        let nan = Value::Double(f64::NAN);
        let v = compare(BinOp::Le, NumKind::Double, nan.clone(), Value::Double(1.0)).unwrap();
        assert!(matches!(v, Value::Bool(false)));
        let v = compare(BinOp::Ne, NumKind::Double, nan, Value::Double(1.0)).unwrap();
        assert!(matches!(v, Value::Bool(true)));
    }

    #[test]
    fn widening() {
        assert!(matches!(
            widen_value(Value::Int(3), PrimTy::Long),
            Value::Long(3)
        ));
        assert!(matches!(widen_value(Value::Int(3), PrimTy::Double), Value::Double(x) if x == 3.0));
        assert!(matches!(
            widen_value(Value::Char('a'), PrimTy::Int),
            Value::Int(97)
        ));
        // Non-widening pairs pass through unchanged.
        assert!(matches!(
            widen_value(Value::Bool(true), PrimTy::Int),
            Value::Bool(true)
        ));
    }

    #[test]
    fn type_mismatch_is_an_error_not_a_panic() {
        let e = arith(BinOp::Add, NumKind::Int, Value::Int(1), Value::Long(1)).unwrap_err();
        assert_eq!(e.kind, ErrorKind::Other);
        let e = compare(BinOp::Lt, NumKind::Double, Value::Int(1), Value::Int(2)).unwrap_err();
        assert_eq!(e.kind, ErrorKind::Other);
    }
}
