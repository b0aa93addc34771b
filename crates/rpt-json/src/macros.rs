//! The [`json!`] literal macro: a small tt-muncher in the style of
//! `serde_json::json!`, covering the shapes the bench binaries use —
//! object/array literals, arbitrary Rust expressions in value position
//! (converted via `Into<Json>`), nesting, and trailing commas.

/// Builds a [`crate::Json`] from a JSON-like literal.
///
/// ```
/// use rpt_json::json;
/// let f1 = 0.73;
/// let v = json!({"model": "RPT-E", "f1": f1, "paper": [0.72, 0.53]});
/// assert_eq!(v.get("f1").unwrap().as_f64(), Some(0.73));
/// ```
#[macro_export]
macro_rules! json {
    (null) => { $crate::Json::Null };
    ([ $($tt:tt)* ]) => {{
        #[allow(unused_mut)]
        let mut items: ::std::vec::Vec<$crate::Json> = ::std::vec::Vec::new();
        $crate::json_array_internal!(items, $($tt)*);
        $crate::Json::Array(items)
    }};
    ({ $($tt:tt)* }) => {{
        #[allow(unused_mut)]
        let mut map = $crate::Map::new();
        $crate::json_object_internal!(map, $($tt)*);
        $crate::Json::Object(map)
    }};
    ($other:expr) => { $crate::Json::from($other) };
}

/// Internal: munches `key : value , ...` pairs into `$map`.
#[doc(hidden)]
#[macro_export]
macro_rules! json_object_internal {
    // done (empty object or fully consumed)
    ($map:ident, ) => {};
    // start a pair: grab the key, then accumulate value tokens
    ($map:ident, $key:tt : $($rest:tt)*) => {
        $crate::json_object_value!($map, $key, (), $($rest)*)
    };
}

/// Internal: accumulates one value's tokens up to a top-level comma.
#[doc(hidden)]
#[macro_export]
macro_rules! json_object_value {
    // comma ends the pair; recurse on the remainder
    ($map:ident, $key:tt, ($($val:tt)*), , $($rest:tt)*) => {
        $map.insert(($key).to_string(), $crate::json!($($val)*));
        $crate::json_object_internal!($map, $($rest)*);
    };
    // end of input ends the last pair
    ($map:ident, $key:tt, ($($val:tt)*), ) => {
        $map.insert(($key).to_string(), $crate::json!($($val)*));
    };
    // otherwise: move one token into the accumulator
    ($map:ident, $key:tt, ($($val:tt)*), $next:tt $($rest:tt)*) => {
        $crate::json_object_value!($map, $key, ($($val)* $next), $($rest)*)
    };
}

/// Internal: munches `value , ...` elements into `$items`.
#[doc(hidden)]
#[macro_export]
macro_rules! json_array_internal {
    ($items:ident, ) => {};
    ($items:ident, $($rest:tt)+) => {
        $crate::json_array_value!($items, (), $($rest)+)
    };
}

/// Internal: accumulates one element's tokens up to a top-level comma.
#[doc(hidden)]
#[macro_export]
macro_rules! json_array_value {
    ($items:ident, ($($val:tt)*), , $($rest:tt)*) => {
        ::std::vec::Vec::push(&mut $items, $crate::json!($($val)*));
        $crate::json_array_internal!($items, $($rest)*);
    };
    ($items:ident, ($($val:tt)*), ) => {
        ::std::vec::Vec::push(&mut $items, $crate::json!($($val)*));
    };
    ($items:ident, ($($val:tt)*), $next:tt $($rest:tt)*) => {
        $crate::json_array_value!($items, ($($val)* $next), $($rest)*)
    };
}
