//! Clean fixture: the one place the `single-json` rule lets the JSON
//! value be declared.

pub enum Json {
    Null,
    Num(String),
}
