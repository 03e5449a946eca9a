// single-json violation: a second JSON value declared outside
// crates/types.

pub enum Json {
    Null,
    Num(f64),
}
