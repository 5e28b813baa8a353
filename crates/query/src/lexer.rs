//! Tokenizer for the C-SPARQL subset.

use crate::error::QueryError;

/// A lexical token.
#[derive(Debug, Clone, PartialEq)]
pub enum Token {
    /// Keyword or bare identifier (`SELECT`, `Tweet_Stream`, `po`, …).
    Ident(String),
    /// Variable, without the leading `?` (`?X` → `X`).
    Var(String),
    /// Numeric literal (integer or decimal), with optional time-unit
    /// suffix already stripped by the parser.
    Number(f64),
    /// A duration literal like `10s`, `100ms`, `5m`.
    Duration(u64),
    /// `{`
    LBrace,
    /// `}`
    RBrace,
    /// `(`
    LParen,
    /// `)`
    RParen,
    /// `[`
    LBracket,
    /// `]`
    RBracket,
    /// `.` (triple separator)
    Dot,
    /// `,`
    Comma,
    /// A comparison operator (`<`, `<=`, `>`, `>=`, `=`, `!=`).
    Cmp(String),
}

fn is_ident_char(c: char) -> bool {
    c.is_alphanumeric() || matches!(c, '_' | '-' | ':' | '#' | '.' | '/')
}

/// Tokenizes C-SPARQL text.
///
/// Identifiers may contain `.` (IRIs, hashtags), so a `.` is a triple
/// separator only when surrounded by whitespace or at clause boundaries —
/// the common C-SPARQL formatting, and how all bundled queries are written.
pub(crate) fn lex(input: &str) -> Result<Vec<Token>, QueryError> {
    let mut tokens = Vec::new();
    let bytes: Vec<char> = input.chars().collect();
    let mut i = 0;
    while i < bytes.len() {
        let c = bytes[i];
        match c {
            c if c.is_whitespace() => i += 1,
            // `#` at a token boundary followed by whitespace-delimited
            // text could be a hashtag entity; a comment is `#` preceded
            // by start-of-line context and followed by a space. C-SPARQL
            // comments use `# ` by convention here.
            '#' if i + 1 < bytes.len() && bytes[i + 1] == ' ' => {
                while i < bytes.len() && bytes[i] != '\n' {
                    i += 1;
                }
            }
            '{' => {
                tokens.push(Token::LBrace);
                i += 1;
            }
            '}' => {
                tokens.push(Token::RBrace);
                i += 1;
            }
            '(' => {
                tokens.push(Token::LParen);
                i += 1;
            }
            ')' => {
                tokens.push(Token::RParen);
                i += 1;
            }
            '[' => {
                tokens.push(Token::LBracket);
                i += 1;
            }
            ']' => {
                tokens.push(Token::RBracket);
                i += 1;
            }
            ',' => {
                tokens.push(Token::Comma);
                i += 1;
            }
            '?' => {
                let start = i + 1;
                let mut j = start;
                while j < bytes.len() && (bytes[j].is_alphanumeric() || bytes[j] == '_') {
                    j += 1;
                }
                if j == start {
                    return Err(QueryError::Lex {
                        pos: i,
                        reason: "`?` must start a variable name".into(),
                    });
                }
                tokens.push(Token::Var(bytes[start..j].iter().collect()));
                i = j;
            }
            '<' | '>' | '=' | '!' => {
                let two: String = bytes[i..(i + 2).min(bytes.len())].iter().collect();
                if two == "<=" || two == ">=" || two == "!=" {
                    tokens.push(Token::Cmp(two));
                    i += 2;
                } else if c == '!' {
                    return Err(QueryError::Lex {
                        pos: i,
                        reason: "`!` must be part of `!=`".into(),
                    });
                } else if c == '<' {
                    // Either a comparison or an IRI bracket `<name>`.
                    if let Some(close) = bytes[i + 1..].iter().position(|&c| c == '>') {
                        let inner: String = bytes[i + 1..i + 1 + close].iter().collect();
                        if !inner.is_empty()
                            && inner.chars().all(is_ident_char)
                            && !inner.contains(char::is_whitespace)
                        {
                            tokens.push(Token::Ident(inner));
                            i += close + 2;
                            continue;
                        }
                    }
                    tokens.push(Token::Cmp("<".into()));
                    i += 1;
                } else {
                    tokens.push(Token::Cmp(c.to_string()));
                    i += 1;
                }
            }
            '.' => {
                // A lone dot is a triple separator (identifiers containing
                // dots are consumed by the identifier arm below).
                tokens.push(Token::Dot);
                i += 1;
            }
            c if c.is_ascii_digit() => {
                let start = i;
                let mut j = i;
                while j < bytes.len() && (bytes[j].is_ascii_digit() || bytes[j] == '.') {
                    j += 1;
                }
                let num_str: String = bytes[start..j].iter().collect();
                // Optional duration suffix: ms, s, m.
                let suffix_start = j;
                while j < bytes.len() && bytes[j].is_alphabetic() {
                    j += 1;
                }
                let suffix: String = bytes[suffix_start..j].iter().collect();
                let n: f64 = num_str.parse().map_err(|_| QueryError::Lex {
                    pos: start,
                    reason: format!("bad number {num_str:?}"),
                })?;
                match suffix.as_str() {
                    "" => tokens.push(Token::Number(n)),
                    "ms" => tokens.push(Token::Duration(n as u64)),
                    "s" => tokens.push(Token::Duration((n * 1_000.0) as u64)),
                    "m" => tokens.push(Token::Duration((n * 60_000.0) as u64)),
                    _ => {
                        return Err(QueryError::Lex {
                            pos: start,
                            reason: format!("unknown duration unit {suffix:?}"),
                        })
                    }
                }
                i = j;
            }
            c if is_ident_char(c) => {
                let start = i;
                let mut j = i;
                while j < bytes.len() && is_ident_char(bytes[j]) {
                    j += 1;
                }
                // A trailing dot is a triple separator, not part of the
                // identifier ("…?X ht #sosp17.").
                let mut end = j;
                if bytes[end - 1] == '.' {
                    end -= 1;
                }
                tokens.push(Token::Ident(bytes[start..end].iter().collect()));
                if end < j {
                    tokens.push(Token::Dot);
                }
                i = j;
            }
            _ => {
                return Err(QueryError::Lex {
                    pos: i,
                    reason: format!("unexpected character {c:?}"),
                })
            }
        }
    }
    Ok(tokens)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lexes_fig2_oneshot() {
        let toks = lex("SELECT ?X WHERE { Logan po ?X . ?X ht #sosp17 }").unwrap();
        assert!(toks.contains(&Token::Ident("SELECT".into())));
        assert!(toks.contains(&Token::Var("X".into())));
        assert!(toks.contains(&Token::Ident("#sosp17".into())));
        assert!(toks.contains(&Token::Dot));
    }

    #[test]
    fn lexes_window_spec() {
        let toks = lex("[RANGE 10s STEP 100ms]").unwrap();
        assert_eq!(
            toks,
            vec![
                Token::LBracket,
                Token::Ident("RANGE".into()),
                Token::Duration(10_000),
                Token::Ident("STEP".into()),
                Token::Duration(100),
                Token::RBracket,
            ]
        );
    }

    #[test]
    fn lexes_filters_and_numbers() {
        let toks = lex("FILTER(?v >= 12.5)").unwrap();
        assert_eq!(
            toks,
            vec![
                Token::Ident("FILTER".into()),
                Token::LParen,
                Token::Var("v".into()),
                Token::Cmp(">=".into()),
                Token::Number(12.5),
                Token::RParen,
            ]
        );
    }

    #[test]
    fn lexes_iri_brackets_as_ident() {
        let toks = lex("FROM <X-Lab>").unwrap();
        assert_eq!(
            toks,
            vec![Token::Ident("FROM".into()), Token::Ident("X-Lab".into())]
        );
    }

    #[test]
    fn trailing_dot_separates() {
        let toks = lex("?X ht tag.").unwrap();
        assert_eq!(toks.last(), Some(&Token::Dot));
        assert!(toks.contains(&Token::Ident("tag".into())));
    }

    #[test]
    fn bad_characters_error() {
        assert!(lex("SELECT @x").is_err());
        assert!(lex("? x").is_err());
        assert!(lex("FILTER(?v ! 3)").is_err());
        assert!(lex("[RANGE 10h]").is_err());
    }
}
